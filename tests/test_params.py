import dataclasses
import json
import math
import re

import pytest

from epict import InvalidParams, Params, delta_for_testing_fraction, r0, with_param
from epict.params import params_from_dict, testing_fraction


def test_valid_params_pass_unchanged():
    p = Params(beta=6 / 7, gamma=1 / 7, delta=1 / 7, pi=0.5, p=0.5, n=5000)
    assert list(dataclasses.asdict(p).items()) == [
        ("beta", 6 / 7), ("gamma", 1 / 7), ("delta", 1 / 7), ("pi", 0.5), ("p", 0.5), ("n", 5000)
    ]
    # the closed ends of every bound are valid
    Params(beta=0.0, gamma=1e-9, delta=0.0, pi=0.0, p=1.0, n=1)
    Params(beta=1.0, gamma=1.0, delta=1.0, pi=1.0, p=0.0, n=1)


def test_negative_beta_rejected():
    with pytest.raises(InvalidParams, match="beta negative"):
        Params(beta=-1.0, gamma=1 / 7, delta=0.0, pi=0.0, p=0.0, n=1)


@pytest.mark.parametrize("name", ["beta", "gamma", "delta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_rates_rejected(name, value):
    rates = dict(beta=1.0, gamma=1.0, delta=0.5)
    rates[name] = value
    with pytest.raises(InvalidParams, match=f"{name} must be finite"):
        Params(pi=0.0, p=0.0, n=1, **rates)


def test_pi_out_of_range_rejected():
    with pytest.raises(InvalidParams, match=r"pi out of \[0,1\]"):
        Params(beta=1.0, gamma=1.0, delta=0.0, pi=1.5, p=0.0, n=1)


def test_all_violations_reported_together():
    with pytest.raises(InvalidParams) as err:
        Params(beta=-1.0, gamma=0.0, delta=-2.0, pi=-0.1, p=2.0, n=0)
    msg = str(err.value)
    for piece in ("beta negative", "gamma must be positive", "delta negative",
                  "pi out of [0,1]", "p out of [0,1]", "n must be a positive integer"):
        assert piece in msg


def test_gamma_zero_rejected():
    with pytest.raises(InvalidParams):
        Params(beta=1.0, gamma=0.0, delta=0.1, pi=0.0, p=0.0, n=1)


def test_params_immutable():
    p = Params(beta=1.0, gamma=1.0, delta=0.0, pi=0.0, p=0.0, n=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.beta = 2.0


def test_r0_reference_values():
    assert r0(Params(0.8, 1 / 7, 1 / 7, 0, 0, 1)) == pytest.approx(2.80, abs=1e-12)
    assert r0(Params(6 / 7, 1 / 7, 1 / 7, 0, 0, 1)) == pytest.approx(3.0, abs=1e-12)
    assert r0(Params(6 / 7, 1 / 7, 0.0, 0, 0, 1)) == pytest.approx(6.0, abs=1e-12)


def test_r0_monotone_on_grid():
    betas = [0.2, 0.5, 0.8, 1.2]
    gammas = [0.1, 0.2, 0.4]
    deltas = [0.0, 0.1, 0.3]
    for g in gammas:
        for d in deltas:
            vals = [r0(Params(b, g, d, 0, 0, 1)) for b in betas]
            assert all(a < b for a, b in zip(vals, vals[1:]))
    for b in betas:
        for d in deltas:
            vals = [r0(Params(b, g, d, 0, 0, 1)) for g in gammas]
            assert all(a > x for a, x in zip(vals, vals[1:]))
        for g in gammas:
            vals = [r0(Params(b, g, d, 0, 0, 1)) for d in deltas]
            assert all(a > x for a, x in zip(vals, vals[1:]))


@pytest.mark.parametrize("delta", [0.0, 1 / 7, 0.9, 12.3])
def test_testing_fraction_round_trip(delta):
    gamma = 1 / 7
    f = testing_fraction(delta, gamma)
    back = delta_for_testing_fraction(f, gamma)
    assert back == pytest.approx(delta, rel=1e-12, abs=1e-15)
    assert 0.0 <= f < 1.0


def test_json_round_trip():
    p = Params(0.8, 1 / 7, 1 / 7, 2 / 3, 1 / 3, 5000)
    q = params_from_dict(json.loads(json.dumps(dataclasses.asdict(p))))
    assert q == p


def test_unknown_json_key_rejected():
    with pytest.raises(InvalidParams, match="unknown parameter key"):
        params_from_dict({"beta": 1, "gamma": 1, "delta": 0, "pi": 0, "p": 0, "bta": 2})


def test_missing_json_key_rejected_without_base():
    with pytest.raises(InvalidParams, match="missing parameter key"):
        params_from_dict({"beta": 1, "gamma": 1})


def test_partial_dict_merges_over_base():
    base = Params(0.8, 1 / 7, 1 / 7, 0.0, 0.0, 5000)
    q = params_from_dict({"pi": 0.5}, base=base)
    assert q.pi == 0.5 and q.beta == base.beta and q.n == 5000


def test_with_param_testing_fraction():
    base = Params(0.8, 1 / 7, 0.0, 0.0, 0.0, 1)
    q = with_param(base, "testing_fraction", 0.5)
    assert testing_fraction(q.delta, q.gamma) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(InvalidParams):
        with_param(base, "alpha", 1.0)


def test_with_param_keeps_others():
    base = Params(0.8, 1 / 7, 1 / 7, 0.25, 0.75, 100)
    q = with_param(base, "p", 0.5)
    assert q.p == 0.5 and q.pi == 0.25 and math.isclose(q.delta, 1 / 7)


@pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf, 2.5, 7.9])
def test_non_integral_n_rejected(n):
    # NaN and inf must not escape as ValueError or OverflowError, and a
    # fraction must not be truncated to a smaller population
    base = Params(beta=1.0, gamma=1.0, delta=0.0, pi=0.0, p=0.0, n=5)
    with pytest.raises(InvalidParams, match="n must be a positive integer"):
        dataclasses.replace(base, n=n)
    with pytest.raises(InvalidParams, match="n must be a positive integer"):
        params_from_dict(dict(dataclasses.asdict(base), n=n))
    with pytest.raises(InvalidParams, match="n must be a positive integer"):
        with_param(base, "n", n)


def test_whole_float_n_becomes_int():
    base = Params(beta=1.0, gamma=1.0, delta=0.0, pi=0.0, p=0.0, n=5)
    for q in (with_param(base, "n", 7.0), params_from_dict({"n": 7.0}, base=base)):
        assert q.n == 7 and type(q.n) is int


@pytest.mark.parametrize("key, value, message", [
    ("n", True, "n must be a positive integer"),
    ("n", "7", "n must be a positive integer"),
    ("beta", True, "beta must be a number, got True"),
    ("pi", "0.5", "pi must be a number, got '0.5'"),
    ("p", None, "p must be a number, got None"),
])
def test_non_number_json_values_rejected(key, value, message):
    # JSON true is not 1 and a string is not a number, with or without a base
    base = Params(beta=1.0, gamma=1.0, delta=0.0, pi=0.0, p=0.0, n=5)
    with pytest.raises(InvalidParams, match=re.escape(message)):
        params_from_dict({key: value}, base=base)
    with pytest.raises(InvalidParams, match=re.escape(message)):
        params_from_dict(dict(dataclasses.asdict(base), **{key: value}))


def test_params_json_must_be_an_object():
    with pytest.raises(InvalidParams, match="must be a JSON object"):
        params_from_dict(json.loads("[1, 2]"))
