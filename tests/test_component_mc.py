"""Combined-model component Monte Carlo against analytic cross-oracles.

At p=0 the combined component reduces rate-for-rate to the app-only cluster,
so every matrix element has a closed form to check against.  At pi=0 the
component is the manual-tracing cluster, which is the same jump process as
the app cluster with the app fraction replaced by the manual probability;
that reparameterisation gives an independent series value for R_M.  With
both kinds of tracing, a sparse linear solve of the component chain on a
truncated (k, l) lattice gives the exact occupation integrals.  A scalar
simulator on the same counter-based streams is the reference the lockstep
engine must reproduce bit for bit.
"""

import dataclasses
import functools
import math
import types

import numpy as np
import pytest

from epict import (
    DivergentSeries,
    EventCapExceeded,
    Params,
    delta_for_testing_fraction,
    estimate_offspring_matrix,
    naive_combined_r,
    offspring_matrix_digital,
    r0,
    r_component_combined,
    r_component_digital,
    r_manual,
)
from epict import component
from epict.component import (
    _BLOCK, _CHUNK, RootType, component_dies_out, component_growth_bound, simulate_components,
)
from epict.digital import independence_product

from conftest import WORKERS
from oracles import manual_r_by_series, tail_prob_jumps


_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_key(seed, root, index):
    """Key of replicate ``index``'s stream: splitmix64 folds of its parts."""
    h = _GOLDEN
    for part in (seed, root.value, index):
        h = _splitmix64((h + (part & _MASK)) & _MASK)
    return h


def scalar_component(params, root, seed, index, cap=10**7):
    """One replicate, simulated alone, one jump at a time.

    Draw j of the replicate is the splitmix64 output for the key plus
    (j+1) golden-ratio increments; the holding time before each jump counts
    as its conditional mean 1/total.  Returns the record that
    ``simulate_components`` stores (jumps, app exposure, non-app exposure,
    exposure at total size 1, app-users ever infected, k and l at the stop,
    non-app-users joined) and the way the component ended.  A diagnosis
    stops it at the state the diagnosis removes.
    """
    key = stream_key(seed, root, index)
    b, g, d, pi, p = params.beta, params.gamma, params.delta, params.pi, params.p
    k = 1.0 if root is RootType.APP else 0.0
    l = 1.0 - k
    ae = ne = s1 = 0.0
    ever_app = int(k)
    nonapp_joins = 0
    jumps = 0
    cause = "all-recovered"
    while k or l:
        if jumps >= cap:
            cause = "event-cap-hit"
            break
        u = (_splitmix64((key + (jumps + 1) * _GOLDEN) & _MASK) >> 11) * 2.0**-53
        t1 = k * (b * pi) + l * (b * pi * p)
        t2 = t1 + k * g
        kl = k + l
        t3 = t2 + kl * (b * (1.0 - pi) * p)
        t4 = t3 + l * g
        total = t4 + kl * d
        ae += k / total
        ne += l / total
        if k + l == 1:
            s1 += 1.0 / total
        u *= total
        jumps += 1
        if u < t1:
            k += 1
            ever_app += 1
        elif u < t2:
            k -= 1
        elif u < t3:
            l += 1
            nonapp_joins += 1
        elif u < t4:
            l -= 1
        else:
            cause = "diagnosed"
            break
    return (jumps, ae, ne, s1, ever_app, int(k), int(l), nonapp_joins), cause


FIELDS = ("jumps", "app_exposure", "nonapp_exposure", "size_one_exposure",
          "ever_infected_app", "k_stop", "l_stop", "hit_cap")


def one_root(samples, root):
    """Root type ``root``'s row of the records, as 1-D arrays together with
    its derived counts, for checks written one root type at a time."""
    row = list(RootType).index(root)
    return types.SimpleNamespace(
        root=root, row=row, **{f: getattr(samples, f)[row] for f in FIELDS},
        nonapp_joins=samples.nonapp_joins[row], diagnosed=samples.diagnosed[row],
        capped=int(samples.hit_cap[row].sum()),
    )


def record(samples, i):
    """Replicate ``i``'s record in ``scalar_component``'s layout."""
    return (tuple(getattr(samples, f)[i] for f in FIELDS[:-1])
            + (samples.nonapp_joins[i],))


def assert_matches_scalar(params, root, replicates, seed):
    """Batch records of root type ``root`` equal the scalar simulator's at
    the same event cap, replicate by replicate; returns that root type's
    records and the scalar causes of death."""
    s = one_root(simulate_components(params, replicates, seed), root)
    causes = []
    for i in range(replicates):
        want, cause = scalar_component(params, root, seed, i, component.EVENT_CAP)
        assert record(s, i) == want, (i, record(s, i), want)
        assert s.hit_cap[i] == (cause == "event-cap-hit")
        assert s.diagnosed[i] == (cause == "diagnosed")
        causes.append(cause)
    assert s.capped == causes.count("event-cap-hit")
    return s, causes


def lattice_offspring_matrix(params, K):
    """Offspring matrix of the component chain truncated at level K = k+l.

    The occupation integrals v_f = E[integral of f dt], f = k or l, solve
    (-Q) v_f = f, with Q the generator on the transient states
    1 <= k+l <= K.  Growth out of level K is suppressed; a diagnosis or the
    last recovery leaves the lattice.  Returns (m11, m12, m21, m22).
    """
    from scipy.sparse import coo_matrix, diags
    from scipy.sparse.linalg import spsolve

    b, g, d, pi, p = params.beta, params.gamma, params.delta, params.pi, params.p
    n = np.concatenate([np.full(m + 1, m) for m in range(1, K + 1)])
    k = np.concatenate([np.arange(m + 1) for m in range(1, K + 1)])
    l = n - k

    def index(kk, ll):
        m = kk + ll
        return (m - 1) * (m + 2) // 2 + kk

    out_rate = n * d
    rows, cols, vals = [], [], []
    for dk, dl, rate in (
        (1, 0, b * pi * (k + p * l)),
        (-1, 0, g * k),
        (0, 1, b * (1 - pi) * p * n),
        (0, -1, g * l),
    ):
        kk, ll = k + dk, l + dl
        out_rate = out_rate + np.where(kk + ll <= K, rate, 0.0)
        inside = (rate > 0) & (kk + ll >= 1) & (kk + ll <= K)
        rows.append(np.nonzero(inside)[0])
        cols.append(index(kk[inside], ll[inside]))
        vals.append(-rate[inside])
    a = (diags(out_rate) + coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n.size, n.size),
    )).tocsc()
    vk = spsolve(a, k.astype(float))
    vl = spsolve(a, l.astype(float))
    to_app = b * pi * (1 - p)
    to_non = b * (1 - pi) * (1 - p)
    app, non = index(1, 0), index(0, 1)
    return (
        to_app * vl[app], to_non * (vk[app] + vl[app]),
        to_app * vl[non], to_non * (vk[non] + vl[non]),
    )


def test_no_births_when_tracing_is_certain():
    # p = 1: every infection is traced, so both birth rates are zero and the
    # exposure-time contributions vanish exactly, though components grow
    p = Params(0.8, 1 / 7, 1 / 7, 0.0, 1.0, 1)
    est = estimate_offspring_matrix(p, 300, seed=7)
    mean = est.mean
    assert (mean.m11, mean.m12, mean.m21, mean.m22) == (0.0, 0.0, 0.0, 0.0)
    assert est.se == (0.0, 0.0, 0.0, 0.0)


def test_app_root_without_manual_tracing_stays_app_only():
    p = Params(0.8, 1 / 7, 1 / 7, 2 / 3, 0.0, 1)
    s = one_root(simulate_components(p, 300, seed=11), RootType.APP)
    assert np.all(s.nonapp_exposure == 0.0)
    assert np.all(s.app_exposure > 0.0) and np.all(s.ever_infected_app >= 1)


def test_death_causes():
    # the batch keeps no cause of death; the scalar simulator, which
    # reproduces every record, tells how each component ended
    heavy_testing = Params(0.2, 1 / 7, 5.0, 0.5, 0.5, 1)
    _, causes = assert_matches_scalar(heavy_testing, RootType.APP, 200, seed=3)
    assert "diagnosed" in causes
    no_testing = Params(0.05, 1.0, 0.0, 0.5, 0.1, 1)
    _, causes = assert_matches_scalar(no_testing, RootType.APP, 200, seed=3)
    assert set(causes) == {"all-recovered"}


@pytest.mark.parametrize("root", list(RootType))
@pytest.mark.parametrize("replicates", [12, 3000])
def test_scalar_simulator_reproduces_batch(table2_params, root, replicates):
    # 12 replicates run in the scalar tail alone; 3000 start in lockstep
    assert_matches_scalar(table2_params, root, replicates, seed=17)


def test_event_cap_outcome_and_estimator_failure(monkeypatch):
    # supercritical within-component growth and delta=0: never dies
    p = Params(2.0, 1 / 7, 0.0, 1.0, 0.0, 1)
    assert scalar_component(p, RootType.APP, 1, 0, cap=64)[1] == "event-cap-hit"
    assert not component_dies_out(p)
    with pytest.raises(DivergentSeries):
        simulate_components(p, 100, seed=1)
    # barely-dying case: delta > 0 passes the guard; capped replicates stop
    # at exactly ``EVENT_CAP`` jumps, in lockstep and in the scalar tail alike
    q = Params(2.0, 1 / 7, 1e-4, 1.0, 0.0, 1)
    monkeypatch.setattr(component, "EVENT_CAP", 64)
    for replicates in (10, 400):
        s, causes = assert_matches_scalar(q, RootType.APP, replicates, seed=1)
        assert s.capped > 0
        assert all(j == 64 for j, c in zip(s.jumps, causes) if c == "event-cap-hit")
    # a tiny cap trips the capped-fraction limit in the estimator
    monkeypatch.setattr(component, "EVENT_CAP", 200)
    with pytest.raises(EventCapExceeded):
        estimate_offspring_matrix(q, 200, seed=2)


def test_growth_bound_matches_single_type_cases():
    # pi=0: bound is beta*p - gamma; p=0: bound is beta*pi - gamma
    assert component_growth_bound(Params(0.8, 0.2, 0.0, 0.0, 0.5, 1)) == pytest.approx(
        0.8 * 0.5 - 0.2
    )
    assert component_growth_bound(Params(0.8, 0.2, 0.0, 0.7, 0.0, 1)) == pytest.approx(
        0.8 * 0.7 - 0.2
    )


def test_matrix_rows_single_individual_case():
    # pi=0, p=0: any component is one non-app-user with geometric offspring,
    # whose conditional-mean exposure 1/(gamma+delta) is deterministic, so
    # the estimate is exact up to rounding and its SE is exactly zero
    p = Params(0.8, 1 / 7, 1 / 7, 0.0, 0.0, 1)
    est = estimate_offspring_matrix(p, 40_000, seed=21, workers=WORKERS)
    assert est.mean.m21 == 0.0
    assert est.se[3] == 0.0
    assert abs(est.mean.m22 - r0(p)) <= 1e-12 * r0(p)


def test_matrix_zero_rate_channels_exact():
    # pi=1: no non-app-user is ever infected, so non-app roots have rate 0;
    # an app-rooted component never holds a non-app-user, so m11 = 0 too
    p = Params(0.8, 1 / 7, 1 / 7, 1.0, 0.3, 1)
    est = estimate_offspring_matrix(p, 5_000, seed=5, workers=WORKERS)
    assert est.mean.m11 == 0.0 and est.mean.m12 == 0.0 and est.mean.m22 == 0.0
    assert est.se[0] == 0.0 and est.se[1] == 0.0 and est.se[3] == 0.0
    assert est.mean.m21 > 0.0


@pytest.mark.parametrize("pi", [0.3, 2 / 3])
def test_matrix_cross_oracle_against_analytic(pi):
    p = Params(6 / 7, 1 / 7, 1 / 7, pi, 0.0, 1)
    analytic = offspring_matrix_digital(p)
    est = estimate_offspring_matrix(p, 60_000, seed=33, workers=WORKERS)
    for got, se, want in zip(
        (est.mean.m11, est.mean.m12, est.mean.m21, est.mean.m22),
        est.se,
        (analytic.m11, analytic.m12, analytic.m21, analytic.m22),
    ):
        assert abs(got - want) <= 3 * se + 1e-12


def test_matrix_against_lattice_solve(table2_params):
    # the lattice oracle first reproduces the closed form at p = 0
    digital = dataclasses.replace(table2_params, p=0.0)
    assert lattice_offspring_matrix(digital, 100)[1] == pytest.approx(
        offspring_matrix_digital(digital).m12, rel=1e-7
    )
    coarse = lattice_offspring_matrix(table2_params, 50)
    exact = lattice_offspring_matrix(table2_params, 100)
    assert max(abs(a - b) for a, b in zip(coarse, exact)) <= 1e-6
    est = estimate_offspring_matrix(table2_params, 40_000, seed=71, workers=WORKERS)
    # four simultaneous comparisons: 4 SE each keeps the family error small
    for got, se, want in zip(
        (est.mean.m11, est.mean.m12, est.mean.m21, est.mean.m22), est.se, exact
    ):
        assert abs(got - want) <= 4 * se


def test_determinism_across_worker_counts():
    p = Params(0.8, 1 / 7, 1 / 7, 2 / 3, 2 / 3, 1)
    one = r_component_combined(p, 20_000, seed=9, workers=1)
    two = r_component_combined(p, 20_000, seed=9, workers=2)
    assert one.value == two.value
    assert one.se == two.se
    assert one.matrix.se == two.matrix.se
    assert one == two


def test_control_variate_estimate_pinned(table2_params):
    # 50000 replicates per root type at the reference point, all five
    # controls fitted: the estimate behind the benchmark's R_DM interval
    est = r_component_combined(table2_params, 50_000, seed=2, workers=2)
    assert [x.hex() for x in (est.value, est.se, est.ci_low, est.ci_high)] == [
        "0x1.d38b776596830p-1", "0x1.833651e09129cp-12",
        "0x1.d32c9972ceda5p-1", "0x1.d3ea55585e2bbp-1",
    ]


def test_determinism_across_chunks_and_workers(table2_params):
    # several chunks, so workers=2 really runs them in processes
    replicates = 2 * _CHUNK + 5_000
    one = simulate_components(table2_params, replicates, seed=19, workers=1)
    two = simulate_components(table2_params, replicates, seed=19, workers=2)
    assert one.capped == two.capped
    for field in FIELDS:
        assert np.array_equal(getattr(one, field), getattr(two, field))
    one = r_component_combined(table2_params, replicates, seed=19, workers=1)
    two = r_component_combined(table2_params, replicates, seed=19, workers=2)
    assert one == two


@functools.lru_cache(maxsize=None)
def scalar_rows(params, replicates, seed, cap=10**7):
    """The scalar simulator's records of both root types, field by field,
    as arrays of shape (2, replicates) in the engine's layout, with
    ``nonapp_joins`` and ``diagnosed`` last."""
    runs = [[scalar_component(params, root, seed, i, cap) for i in range(replicates)]
            for root in RootType]
    out = {f: np.array([[rec[j] for rec, _ in row] for row in runs])
           for j, f in enumerate(FIELDS[:-1] + ("nonapp_joins",))}
    for flag, cause in (("hit_cap", "event-cap-hit"), ("diagnosed", "diagnosed")):
        out[flag] = np.array([[c == cause for _, c in row] for row in runs])
    return out


def assert_rows_match_scalar(samples, want):
    assert samples.jumps.shape == want["jumps"].shape
    for field, values in want.items():
        assert np.array_equal(getattr(samples, field), values), field
    assert samples.capped == want["hit_cap"].sum()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("replicates", [_BLOCK // 2 + 5, _CHUNK + 7],
                         ids=["root-switch-inside-a-block", "chunk-edge"])
def test_both_rows_match_the_scalar_simulator(table2_params, replicates, workers):
    # both root types in one pass share lockstep blocks: at BLOCK/2 + 5 per
    # root the first block switches root type in its middle, and at CHUNK + 7
    # the second task holds 7 of each, with two tasks for the process pool;
    # every replicate of both rows must still be the one simulated alone
    samples = simulate_components(table2_params, replicates, seed=29, workers=workers)
    assert_rows_match_scalar(samples, scalar_rows(table2_params, replicates, 29))


def test_both_rows_match_the_scalar_simulator_at_the_cap(monkeypatch):
    # the cap travels with each chunk task, so a pool worker that is older
    # than the patch stops at it too
    p = Params(2.0, 1 / 7, 1e-3, 0.9, 0.5, 1)
    monkeypatch.setattr(component, "EVENT_CAP", 64)
    monkeypatch.setattr(component, "_CHUNK", 128)
    samples = simulate_components(p, 300, seed=3, workers=WORKERS)
    assert samples.capped > 300
    assert_rows_match_scalar(samples, scalar_rows(p, 300, 3, 64))


def test_replicate_streams_keyed_by_index(table2_params):
    # each replicate's stream is a pure function of (seed, root, index): a
    # shorter run is a prefix of a longer one, across chunk boundaries too
    long = simulate_components(table2_params, _CHUNK + 3_000, seed=123)
    short = simulate_components(table2_params, _CHUNK + 7, seed=123)
    for field in FIELDS:
        assert np.array_equal(getattr(long, field)[:, : _CHUNK + 7], getattr(short, field))
    # and recomputes alone from those three numbers
    for root in RootType:
        for i in (0, 5, _CHUNK + 2_999):
            want, _ = scalar_component(table2_params, root, 123, i)
            assert record(one_root(long, root), i) == want
    keys = {stream_key(123, RootType.APP, 5), stream_key(123, RootType.APP, 6),
            stream_key(123, RootType.NON_APP, 5)}
    assert len(keys) == 3


@pytest.mark.parametrize("chunk", [_CHUNK, 64], ids=["one-chunk", "chunks-of-64"])
def test_records_extend_from_any_start(table2_params, monkeypatch, chunk):
    # indices [0, 50) and then [50, 200) are the 200 records of one call,
    # field by field, also where the later range's chunks start mid-way
    monkeypatch.setattr(component, "_CHUNK", chunk)
    fresh = simulate_components(table2_params, 200, seed=41)
    head = simulate_components(table2_params, 50, seed=41)
    rest = simulate_components(table2_params, 150, seed=41, start=50)
    both = head.extended(rest)
    for field in FIELDS:
        assert np.array_equal(getattr(rest, field), getattr(fresh, field)[:, 50:]), field
        assert np.array_equal(getattr(both, field), getattr(fresh, field)), field
        assert getattr(both, field).dtype == getattr(fresh, field).dtype


def test_combined_estimates_extend_one_sample(table2_params, monkeypatch):
    # each estimate is the fresh one at its replicate count, bit for bit,
    # and simulates only the replicates it adds
    counts = [50, 200, 800, 3200]
    fresh = [r_component_combined(table2_params, n, seed=43) for n in counts]
    calls = []
    original = component.simulate_components

    def spy(params, replicates, seed, workers=1, start=0):
        calls.append((replicates, start))
        return original(params, replicates, seed, workers, start)

    monkeypatch.setattr(component, "simulate_components", spy)
    extended = list(component.combined_estimates(table2_params, counts, seed=43))
    assert [(e.value, e.se, e.matrix) for e in extended] == \
        [(e.value, e.se, e.matrix) for e in fresh]
    assert calls == [(50, 0), (150, 50), (600, 200), (2400, 800)]


def test_tail_replicate_outlives_its_first_batch_of_draws():
    # 12 replicates of each root type start below _TAIL, so all of them run
    # in the scalar tail from their first jump; the longest use several
    # batches of draws and must still be the replicates simulated alone
    params = Params(6 / 7, 1 / 7, 0.01, 0.5, 0.5, 1)
    assert 2 * 12 < component._TAIL
    samples = simulate_components(params, 12, seed=1)
    assert samples.jumps.max() > 2 * component._TAIL_DRAWS
    assert_rows_match_scalar(samples, scalar_rows(params, 12, 1))


def test_tail_replicate_stops_at_the_cap_after_a_refill(monkeypatch):
    # app-rooted components at pi = 1 grow at rate 2 against 1/7 + 1e-4 and
    # reach a cap that lies inside their second batch of draws
    params = Params(2.0, 1 / 7, 1e-4, 1.0, 0.0, 1)
    cap = component._TAIL_DRAWS + 37
    monkeypatch.setattr(component, "EVENT_CAP", cap)
    samples = simulate_components(params, 10, seed=1)
    assert samples.capped > 0
    assert set(samples.jumps[samples.hit_cap].tolist()) == {cap}
    assert_rows_match_scalar(samples, scalar_rows(params, 10, 1, cap))


def percentile_bootstrap(rows, resamples=1000, blocks=1000, seed=0):
    """95% percentile interval of the spectral radius by a block bootstrap.

    ``rows`` holds the per-replicate contributions (x11, x12, x21, x22).
    Replicates are i.i.d., so resampling equal contiguous blocks of each row
    independently is a valid bootstrap.
    """
    rng = np.random.default_rng(seed)
    means = []
    for first, second in (rows[:2], rows[2:]):
        b1 = first.reshape(blocks, -1).mean(axis=1)
        b2 = second.reshape(blocks, -1).mean(axis=1)
        pick = rng.integers(0, blocks, (resamples, blocks))
        means += [b1[pick].mean(axis=1), b2[pick].mean(axis=1)]
    m11, m12, m21, m22 = means
    radius = 0.5 * (m11 + m22) + np.sqrt(0.25 * (m11 - m22) ** 2 + m12 * m21)
    lo, hi = np.percentile(radius, [2.5, 97.5])
    return float(lo), float(hi)


def absorption_control(params, s):
    """Per-replicate control 1 - 1{capped} - gamma*S1 - delta*(ae + ne).

    A component is absorbed once, at a diagnosis (rate delta*(k+l)) or at
    its last recovery (rate gamma while k+l = 1), unless the event cap stops
    it first; Dynkin's formula makes the control's mean exactly 0.
    """
    return (1.0 - s.hit_cap.astype(float) - params.gamma * s.size_one_exposure
            - params.delta * (s.app_exposure + s.nonapp_exposure))


def jump_controls(params, s):
    """The four jump-count controls, each the count of one jump type minus
    the sum over the replicate's jumps of that type's probability, which
    is the rate times the conditional-mean holding time, so each has mean
    exactly 0: app joins, app recoveries, non-app joins and non-app
    recoveries.  A recovery count is what the root and the joins added
    minus the state at the stop."""
    b, g, pi, p = params.beta, params.gamma, params.pi, params.p
    k0 = 1 if s.root is RootType.APP else 0
    ae, ne = s.app_exposure, s.nonapp_exposure
    app_joins = s.ever_infected_app - k0
    nonapp_joins = s.nonapp_joins
    return {
        "app-joins": app_joins - b * pi * ae - b * pi * p * ne,
        "app-recoveries": k0 + app_joins - s.k_stop - g * ae,
        "nonapp-joins": nonapp_joins - b * (1 - pi) * p * (ae + ne),
        "nonapp-recoveries": 1 - k0 + nonapp_joins - s.l_stop - g * ne,
    }


def control_adjusted(x, controls):
    """x minus its least-squares combination of the controls."""
    design = np.column_stack([c - c.mean() for c in controls])
    coef = np.linalg.lstsq(design, x - x.mean(), rcond=None)[0]
    return x - np.column_stack(controls) @ coef


def test_r_combined_reference_values(table2_params):
    est = r_component_combined(table2_params, 150_000, seed=61, workers=WORKERS)
    assert est.value == pytest.approx(0.92, abs=0.02)
    assert est.ci_low < est.value < est.ci_high
    # a bootstrap over the same replicate streams, rebuilt with the same
    # five-control adjustment, should roughly agree with the delta-method
    # interval
    p = table2_params
    to_app = p.beta * p.pi * (1.0 - p.p)
    to_non = p.beta * (1.0 - p.pi) * (1.0 - p.p)
    rows = []
    both = simulate_components(p, 150_000, seed=61, workers=WORKERS)
    for root in (RootType.APP, RootType.NON_APP):
        s = one_root(both, root)
        c = [absorption_control(p, s), *jump_controls(p, s).values()]
        rows += [control_adjusted(to_app * s.nonapp_exposure, c),
                 control_adjusted(to_non * (s.app_exposure + s.nonapp_exposure), c)]
    m = est.matrix.mean
    assert [x.mean() for x in rows] == pytest.approx(
        [m.m11, m.m12, m.m21, m.m22], rel=1e-12
    )
    boot = percentile_bootstrap(rows)
    assert boot[0] == pytest.approx(est.ci_low, abs=5 * est.se)
    assert boot[1] == pytest.approx(est.ci_high, abs=5 * est.se)


FIG5B_INTERIOR = Params(6 / 7, 1 / 7, 1 / 28, 0.9, 0.1, 1)
CONTROL_CASES = {
    "reference": (Params(0.8, 1 / 7, 1 / 7, 2 / 3, 2 / 3, 1), 10**7),
    "fig5b": (FIG5B_INTERIOR, 10**7),
    "no-testing": (Params(0.15, 1 / 7, 0.0, 0.5, 0.5, 1), 10**7),  # delta = 0, subcritical
    "capped": (Params(2.0, 1 / 7, 1e-3, 0.9, 0.5, 1), 64),  # most replicates capped
}


@functools.lru_cache(maxsize=None)
def control_samples(case):
    """20000 replicates of each root type of one control case, simulated
    once for every mean-zero test."""
    params, cap = CONTROL_CASES[case]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(component, "EVENT_CAP", cap)
        return simulate_components(params, 20_000, seed=81, workers=WORKERS)


@pytest.mark.parametrize("case", CONTROL_CASES)
def test_absorption_control_has_mean_zero(case):
    params, cap = CONTROL_CASES[case]
    assert component_dies_out(params)
    for root in RootType:
        s = one_root(control_samples(case), root)
        c = absorption_control(params, s)
        if cap == 64:
            assert s.capped > 0.5 * c.size
        assert abs(c.mean()) <= 4 * c.std(ddof=1) / math.sqrt(c.size)


@pytest.mark.parametrize("control", ["app-joins", "app-recoveries", "nonapp-joins",
                                     "nonapp-recoveries"])
@pytest.mark.parametrize("case", CONTROL_CASES)
def test_jump_controls_have_mean_zero(case, control):
    params, _ = CONTROL_CASES[case]
    for root in RootType:
        s = one_root(control_samples(case), root)
        controls = jump_controls(params, s)
        c = controls[control]
        # the engine builds the same control from the same records
        engine = dict(zip(controls, component._controls(params, control_samples(case),
                                                         s.row)[1:]))
        assert np.array_equal(engine[control], c)
        assert c.std() > 0.0
        assert abs(c.mean()) <= 4 * c.std(ddof=1) / math.sqrt(c.size)


def test_join_controls_vanish_without_their_joins():
    # pi = 0 makes no app joins and p = 0 no non-app joins: those controls
    # are exactly 0 on every replicate, and the fit must leave them out
    for params, control in ((Params(0.8, 1 / 7, 1 / 7, 0.0, 2 / 3, 1), "app-joins"),
                            (Params(0.8, 1 / 7, 1 / 7, 2 / 3, 0.0, 1), "nonapp-joins")):
        both = simulate_components(params, 3_000, seed=82)
        for root in RootType:
            assert np.all(jump_controls(params, one_root(both, root))[control] == 0.0)


def _lattice_radius(params):
    m11, m12, m21, m22 = lattice_offspring_matrix(params, 100)
    return 0.5 * (m11 + m22) + math.sqrt(0.25 * (m11 - m22) ** 2 + m12 * m21)


@pytest.mark.parametrize("params, exact", [
    (Params(0.8, 1 / 7, 1 / 7, 0.0, 2 / 3, 1), r_manual),
    (Params(0.8, 1 / 7, 1 / 7, 2 / 3, 0.0, 1), r_component_digital),
    (Params(0.8, 1 / 7, 1 / 7, 2 / 3, 2 / 3, 1), _lattice_radius),
    (FIG5B_INTERIOR, _lattice_radius),
    (Params(6 / 7, 1 / 7, delta_for_testing_fraction(0.01, 1 / 7), 0.1, 0.1, 1),
     _lattice_radius),
], ids=["pi=0", "p=0", "reference", "fig5b", "testing-0.01"])
@pytest.mark.parametrize("replicates", [2_000, 20_000])
def test_control_variate_estimate(params, exact, replicates, monkeypatch):
    est = r_component_combined(params, replicates, seed=91, workers=WORKERS)
    assert abs(est.value - exact(params)) <= 4 * est.se
    # in-sample least squares never widens an element's standard error
    monkeypatch.setattr(component, "_CV_MIN_REPLICATES", math.inf)
    plain = r_component_combined(params, replicates, seed=91, workers=WORKERS)
    assert all(a <= b * (1 + 1e-12) for a, b in zip(est.matrix.se, plain.matrix.se))
    assert est.se < plain.se


def test_plain_means_below_control_threshold(table2_params, monkeypatch):
    replicates = component._CV_MIN_REPLICATES - 1
    est = r_component_combined(table2_params, replicates, seed=92)
    rows = []
    s = simulate_components(table2_params, replicates, seed=92)
    for row in range(len(RootType)):
        rows += [s.nonapp_exposure[row], s.app_exposure[row] + s.nonapp_exposure[row]]
    p = table2_params
    to_app = p.beta * p.pi * (1.0 - p.p)
    to_non = p.beta * (1.0 - p.pi) * (1.0 - p.p)
    m = est.matrix.mean
    assert [m.m11, m.m12, m.m21, m.m22] == [
        (to_app * rows[0]).mean(), (to_non * rows[1]).mean(),
        (to_app * rows[2]).mean(), (to_non * rows[3]).mean(),
    ]
    monkeypatch.setattr(component, "_CV_MIN_REPLICATES", math.inf)
    assert r_component_combined(table2_params, replicates, seed=92) == est


@pytest.mark.parametrize("params, exact", [
    (Params(0.8, 1 / 7, 1 / 7, 0.0, 2 / 3, 1), r_manual),
    (Params(0.8, 1 / 7, 1 / 7, 1.0, 0.3, 1), r_component_digital),  # exactly 0
    (Params(0.8, 1 / 7, 1 / 7, 2 / 3, 0.0, 1), r_component_digital),
    (Params(0.8, 1 / 7, 1 / 7, 0.5, 1.0, 1), lambda params: 0.0),
    (Params(0.15, 1 / 7, 0.0, 0.5, 0.5, 1), _lattice_radius),
], ids=["pi=0", "pi=1", "p=0", "p=1", "delta=0"])
def test_controls_at_the_corners(params, exact):
    # at the edges of the (pi, p) square some controls are identically 0
    # and, with delta = 0, the four jump-count ones sum to 0: the fit must
    # drop them rather than divide by a vanishing variance
    est = r_component_combined(params, component._CV_MIN_REPLICATES, seed=93,
                               workers=WORKERS)
    m = est.matrix
    numbers = (est.value, est.se, m.mean.m11, m.mean.m12, m.mean.m21, m.mean.m22,
               *m.se, *m.row_cov)
    assert all(math.isfinite(x) for x in numbers)
    assert abs(est.value - exact(params)) <= 4 * est.se + 1e-12


def test_interval_coverage_at_the_control_threshold():
    # the fewest replicates that the controls adjust: 100 estimates at the
    # reference point, where most replicates end by a diagnosis, so all
    # five controls are fitted, against the lattice solve
    params = Params(0.8, 1 / 7, 1 / 7, 2 / 3, 2 / 3, 1)
    replicates = component._CV_MIN_REPLICATES
    diagnosed = simulate_components(params, replicates, seed=0).diagnosed.sum(axis=1)
    assert np.all(diagnosed >= component._JUMP_CV_MIN_DIAGNOSED)
    exact = _lattice_radius(params)
    z = np.array([(est.value - exact) / est.se for est in (
        r_component_combined(params, replicates, seed=seed) for seed in range(100))])
    assert np.mean(np.abs(z) > 1.96) <= 0.10
    assert 0.8 <= z.std(ddof=1) <= 1.2


def test_jump_controls_wait_for_diagnosed_replicates(monkeypatch):
    # at testing fraction 0.01 a 2000-replicate sample holds fewer than
    # _JUMP_CV_MIN_DIAGNOSED diagnosed replicates per root type, so only
    # the absorption control is fitted; at the reference point all five are
    low = Params(6 / 7, 1 / 7, delta_for_testing_fraction(0.01, 1 / 7), 0.1, 0.1, 1)
    reference = Params(0.8, 1 / 7, 1 / 7, 2 / 3, 2 / 3, 1)
    replicates = component._CV_MIN_REPLICATES
    both = [r_component_combined(p, replicates, seed=94) for p in (low, reference)]
    diagnosed = simulate_components(low, replicates, seed=94).diagnosed.sum(axis=1)
    assert np.all((0 < diagnosed) & (diagnosed < component._JUMP_CV_MIN_DIAGNOSED))
    monkeypatch.setattr(component, "_JUMP_CV_MIN_DIAGNOSED", math.inf)
    alone = [r_component_combined(p, replicates, seed=94) for p in (low, reference)]
    assert both[0] == alone[0]
    assert both[1].se < alone[1].se


@pytest.mark.parametrize("pi, p, seed", [
    (1e-4, 0.5, 0), (1e-5, 0.5, 39), (0.5, 1e-5, 29), (0.5, 1e-6, 1), (1e-6, 0.999999, 0),
])
def test_jump_controls_wait_for_their_jumps(pi, p, seed):
    # where a row's replicates almost never make one kind of jump, that
    # jump's control is minus a fixed multiple of an exposure, and fitting
    # it cancelled the contribution series: a mean of about 0 with about 0
    # spread, or a negative one the offspring matrix refused
    params = Params(6 / 7, 1 / 7, 1 / 28, pi, p, 1)
    est = r_component_combined(params, component._CV_MIN_REPLICATES, seed=seed)
    assert abs(est.value - _lattice_radius(params)) <= 6 * est.se


def test_r_combined_manual_only_matches_series(table2_params):
    p = dataclasses.replace(table2_params, pi=0.0)
    est = r_component_combined(p, 150_000, seed=62, workers=WORKERS)
    series = manual_r_by_series(p.beta, p.gamma, p.delta, p.p)
    assert abs(est.value - series) <= 3 * est.se
    assert est.value == pytest.approx(1.49, abs=0.02)


def test_r_combined_digital_only_matches_analytic(table2_params):
    p = dataclasses.replace(table2_params, p=0.0)
    est = r_component_combined(p, 150_000, seed=63, workers=WORKERS)
    assert abs(est.value - r_component_digital(p)) <= 3 * est.se
    assert est.value == pytest.approx(2.20, abs=0.02)


def test_r_combined_certain_tracing_is_zero():
    p = Params(0.8, 1 / 7, 1 / 7, 0.5, 1.0, 1)
    est = r_component_combined(p, 4_000, seed=64, workers=WORKERS)
    assert est.value == 0.0
    assert est.ci_low == est.ci_high == 0.0


def test_naive_product_reference_value(table2_params):
    # R_M by the app-cluster series with the app fraction set to p, and by
    # the Catalan tail sum of the same jump count, times the closed-form R_D
    p = table2_params
    r_d = r_component_digital(p)
    series = manual_r_by_series(p.beta, p.gamma, p.delta, p.p) * r_d / r0(p)
    manual = dataclasses.replace(p, pi=p.p)
    jumps = 1.0 + sum(tail_prob_jumps(k, manual) for k in range(1, 400))
    catalan = p.beta * (1 - p.p) / (p.beta * p.p + p.gamma + p.delta) * jumps * r_d / r0(p)
    est = naive_combined_r(p)
    assert est.value == pytest.approx(series, rel=1e-12)
    assert est.value == pytest.approx(catalan, rel=1e-10)
    assert est.value == pytest.approx(1.17, abs=0.02)
    assert est.value == independence_product(p)
    assert est.se == 0.0 and est.ci_low == est.ci_high == est.value
    assert est.r_digital == r_d and est.r_manual.value == r_manual(p)
    assert est.r_manual.se == 0.0
    # the parameters the benchmark still passes change nothing
    assert naive_combined_r(p, 50_000, seed=3, workers=WORKERS) == est


def test_naive_product_no_manual_reduction_is_exactly_digital(table2_params):
    p = dataclasses.replace(table2_params, p=0.0)
    est = naive_combined_r(p)
    assert est.value == r_component_digital(p)
    assert est.se == 0.0 and est.r_manual.value == r_manual(p) == r0(p)


def test_naive_product_no_digital_reduction_is_manual(table2_params):
    p = dataclasses.replace(table2_params, pi=0.0)
    est = naive_combined_r(p)
    assert est.value == r_manual(p) == est.r_manual.value
    assert est.se == 0.0 and est.ci_low == est.ci_high == est.value


def test_combined_beats_independence_product(table2_params):
    combined = r_component_combined(table2_params, 120_000, seed=68, workers=WORKERS)
    naive = naive_combined_r(table2_params)
    assert combined.ci_high < naive.ci_low


def test_manual_r_shape_in_p_at_half_testing(figure_params):
    # The manual-only component number is NOT monotone near p=0: a small
    # tracing probability grows the component (scale change) faster than it
    # cuts exports, peaking near p=0.15 before decreasing.  Both the Monte
    # Carlo and the independent series value show the bump; beyond p=0.2 the
    # curve is decreasing.  Verified against the series at every grid point.
    estimates = []
    for i in range(11):
        p = dataclasses.replace(figure_params, pi=0.0, p=i / 10)
        est = r_component_combined(p, 25_000, seed=900 + i, workers=WORKERS)
        series = manual_r_by_series(p.beta, p.gamma, p.delta, p.p)
        assert abs(est.value - series) <= 3 * est.se + 1e-12
        estimates.append(est)
    # CI-separated rise from p=0 to p=0.1
    assert estimates[1].value - 3 * math.hypot(estimates[1].se, estimates[0].se) > estimates[0].value
    # non-increasing from p=0.2 on
    for a, b in zip(estimates[2:], estimates[3:]):
        assert b.value <= a.value + 3 * math.hypot(a.se, b.se)


def test_jumps_floor():
    p = Params(0.8, 1 / 7, 1 / 7, 0.5, 0.5, 1)
    s = simulate_components(p, 100, seed=123)
    assert s.jumps.min() >= 1
