"""The two workloads: their inputs and their calls into ``epict``.

Each workload runs in rounds.  A round makes the same operations with new
seeds derived from the run's ``--seed`` and the round index, so one seed
always gives the same inputs.  An operation is one call (or call pair) into
the package's public functions, made as the CLI subcommand makes it.  The
checks live in :mod:`checks`; this module imports nothing but the standard
library, so that timing the set-up times only ``epict``.
"""

from __future__ import annotations

import hashlib

REFERENCE = dict(beta=0.8, gamma=1 / 7, delta=1 / 7, pi=2 / 3, p=2 / 3, n=5000)
FIGURE = dict(beta=6 / 7, gamma=1 / 7)  # the sweep module's figure baseline
TABLE_ROWS = [(0.0, 0.0), (0.0, 2 / 3), (2 / 3, 0.0), (2 / 3, 2 / 3)]  # (p, pi)
PLAIN_ROW = "row p=0.000 pi=0.000"
WORKERS = 2


def derive_seed(*parts) -> int:
    """63-bit seed from the run's seed and the position of a call in it."""
    text = ":".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "little") >> 1


class ReferenceNumbers:
    """R_DM against the independence product at the reference point, as
    ``epict component-mc`` computes them."""

    name = "reference_numbers"
    replicates = 50_000  # per root type: two 25k-replicate chunks each

    def __init__(self, epict):
        self.epict = epict
        self.params = epict.Params(**REFERENCE)

    def operations(self, seed, round_index, workers):
        s = derive_seed(self.name, seed, round_index)
        component = self.epict.component
        return [
            ("r_component_combined", lambda: component.r_component_combined(
                self.params, self.replicates, seed=s, workers=workers)),
            ("naive_combined_r", lambda: component.naive_combined_r(
                self.params, self.replicates, seed=s, workers=workers)),
        ]

    @staticmethod
    def e2e(outputs, times):
        est = outputs["r_component_combined"]
        return {"r_dm_ci_halfwidth": 0.5 * (est.ci_high - est.ci_low)}


class OutbreakTable:
    """Major-outbreak ensembles for the four (p, pi) rows of the reference
    table, as ``epict table2`` computes them."""

    name = "outbreak_table"
    runs = 200  # per row

    def __init__(self, epict):
        self.epict = epict
        self.rows = {
            f"row p={p:.3f} pi={pi:.3f}": epict.Params(**{**REFERENCE, "p": p, "pi": pi})
            for p, pi in TABLE_ROWS
        }

    def operations(self, seed, round_index, workers, runs=None):
        runs = runs or self.runs
        epidemic = self.epict.epidemic
        ops = []
        for i, (name, params) in enumerate(self.rows.items()):
            s = derive_seed(self.name, seed, round_index, i)

            def op(params=params, s=s):
                outcomes = epidemic.ensemble_outcomes(params, runs, s, workers=workers)
                return outcomes, epidemic.summarize_ensemble(outcomes, params.n)

            ops.append((name, op))
        return ops

    @staticmethod
    def e2e(outputs, times):
        plain = sum(o.event_count for o in outputs[PLAIN_ROW][0])
        rows = [name for name in outputs if name.startswith("row ") and name != PLAIN_ROW]
        traced = sum(o.event_count for name in rows for o in outputs[name][0])
        traced_time = sum(times[name] for name in rows)
        return {
            "plain_sir_events_per_s": plain / times[PLAIN_ROW],
            "contact_tracing_events_per_s": traced / traced_time,
        }


class ReferencePoint:
    """Both computations at the reference point: the reference numbers, then
    the outbreak table."""

    name = "reference_point"
    makes_events = True  # its own calls give every end-to-end metric
    # trace closures happen inside the worker processes, so the traced pass
    # runs the table's ensembles in this process
    traced_epidemic_workers = 1

    def __init__(self, epict):
        self.numbers = ReferenceNumbers(epict)
        self.table = OutbreakTable(epict)

    def operations(self, seed, round_index, workers, epidemic_workers=None):
        return (self.numbers.operations(seed, round_index, workers)
                + self.table.operations(seed, round_index, epidemic_workers or workers))

    @staticmethod
    def e2e(outputs, times):
        return {**ReferenceNumbers.e2e(outputs, times), **OutbreakTable.e2e(outputs, times)}


class CriticalCurves:
    """The fig3a and fig5b datasets of ``epict sweep --spec``, reduced."""

    name = "critical_curves"
    replicates = 50  # base replicate count of every Monte Carlo evaluation
    curve_points = 2
    grid_points = 3
    makes_events = False
    traced_epidemic_workers = None

    def __init__(self, epict):
        self.epict = epict

    def operations(self, seed, round_index, workers, epidemic_workers=None):
        s = derive_seed(self.name, seed, round_index)
        sweep = self.epict.sweep
        return [
            ("fig3a", lambda: sweep.builtin_datasets(
                "fig3a", seed=s, replicates=self.replicates, workers=workers,
                curve_points=self.curve_points)),
            ("fig5b", lambda: sweep.builtin_datasets(
                "fig5b", seed=s, replicates=self.replicates, workers=workers,
                curve_points=self.curve_points, grid_points=self.grid_points)),
        ]

    @staticmethod
    def e2e(outputs, times):
        return {}


WORKLOADS = {w.name: w for w in (ReferencePoint, CriticalCurves)}
