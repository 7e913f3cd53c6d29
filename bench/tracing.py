"""Spans and counters around the public functions of each ``epict`` layer.

A :class:`Tracer` replaces module attributes with wrappers for the duration
of a ``with tracer.patched(epict):`` block and restores them afterwards.  Each
call records a span (layer.function, start, end, parent span) and the
counters read from its arguments and result.  Spans stay in memory until
:meth:`Tracer.write` saves them.  The package itself is not modified.

Layers whose calls run inside worker processes cannot be seen from here, so
the traced pass runs the epidemic layer with one worker (see README.md).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

import numpy as np


def _component_samples(args, kwargs, result):
    return {
        "replicates": int(result.jumps.size),
        "jumps": float(result.jumps.sum()),
        "capped": int(result.capped),
    }


def _map_ordered(args, kwargs, result):
    tasks = args[1] if len(args) > 1 else kwargs["arg_list"]
    workers = args[2] if len(args) > 2 else kwargs["workers"]
    return {"tasks": len(tasks), "pool": int(workers > 1 and len(tasks) > 1)}


def _run_epidemic(args, kwargs, result):
    params = args[0] if args else kwargs["params"]
    outcome = result[0] if isinstance(result, tuple) else result
    return {"events": outcome.event_count, "plain": int(params.p == 0.0 and params.pi == 0.0)}


def _trace_closure(args, kwargs, result):
    return {"size": len(result)}


def _evaluate_target(args, kwargs, result):
    target = args[0] if args else kwargs["target"]
    params = args[1] if len(args) > 1 else kwargs["params"]
    mc = args[3] if len(args) > 3 else kwargs.get("mc")
    if target.value not in ("R_DM", "NaiveProduct"):
        return {"mc": 0}
    reps = kwargs.get("replicates")
    if reps is None:
        reps = mc.replicates
    return {
        "mc": 1,
        "replicates": int(reps),
        "base": int(mc.replicates),
        "params": repr(params),
    }


def _offspring_matrix(args, kwargs, result):
    return {"terms": result.series_terms or 0}


# (module, attribute, span name, counter reader).  A function imported by
# name into another module is wrapped there as well, under the same name.
TARGETS = [
    ("component", "r_component_combined", "component.r_component_combined", None),
    ("sweep", "r_component_combined", "component.r_component_combined", None),
    ("component", "naive_combined_r", "component.naive_combined_r", None),
    ("sweep", "naive_combined_r", "component.naive_combined_r", None),
    ("component", "simulate_components", "component.simulate_components", _component_samples),
    ("component", "map_ordered", "util.map_ordered", _map_ordered),
    ("epidemic", "map_ordered", "util.map_ordered", _map_ordered),
    ("epidemic", "ensemble_outcomes", "epidemic.ensemble_outcomes", None),
    ("epidemic", "run_epidemic", "epidemic.run_epidemic", _run_epidemic),
    ("epidemic", "trace_closure", "epidemic.trace_closure", _trace_closure),
    ("sweep", "builtin_datasets", "sweep.builtin_datasets", None),
    ("sweep", "critical_curve", "sweep.critical_curve", None),
    ("sweep", "heatmap_grid", "sweep.heatmap_grid", None),
    ("sweep", "find_critical", "sweep.find_critical", None),
    ("sweep", "evaluate_target", "sweep.evaluate_target", _evaluate_target),
    ("sweep", "r_component_digital", "digital.r_component_digital", None),
    ("sweep", "r_individual_digital", "digital.r_individual_digital", None),
    ("component", "r_component_digital", "digital.r_component_digital", None),
    ("digital", "offspring_matrix_digital", "digital.offspring_matrix_digital", _offspring_matrix),
]


class Tracer:
    """Spans kept in memory as (id, name, start, end, parent id, counters)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name, fn, reader):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((span_id, name, start, clock(), parent, None))
                raise
            finally:
                stack.pop()
            end = clock()
            spans.append((span_id, name, start, end, parent,
                          reader(args, kwargs, result) if reader else None))
            return result

        return traced

    @contextmanager
    def patched(self, package):
        saved = []
        try:
            for module_name, attr, name, reader in TARGETS:
                module = getattr(package, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, reader))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path, extra):
        """Save the spans (compressed numpy arrays) and ``extra`` (JSON)."""
        names = sorted({s[1] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        columns = list(zip(*self.spans)) or [()] * 6
        np.savez_compressed(
            path,
            id=np.array(columns[0], dtype=np.int64),
            name=np.array([ids[n] for n in columns[1]], dtype=np.int16),
            start=np.array(columns[2]),
            end=np.array(columns[3]),
            parent=np.array(columns[4], dtype=np.int64),
            attrs=np.array([json.dumps(a) if a else "" for a in columns[5]]),
            names=np.array(names),
            extra=np.array(json.dumps(extra)),
        )

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures per traced round (times in s unless named)."""
        duration, child_time, children, by_name, attrs = {}, {}, {}, {}, {}
        for span_id, name, start, end, parent, counters in self.spans:
            duration[span_id] = end - start
            attrs[span_id] = counters
            by_name.setdefault(name, []).append(span_id)
            children.setdefault(parent, []).append(span_id)
        for parent, kids in children.items():
            child_time[parent] = sum(duration[k] for k in kids)

        def spans(name):
            return by_name.get(name, [])

        def done(ids):  # spans whose call returned, so their counters exist
            return [i for i in ids if attrs[i] is not None]

        def total(ids, key=None):
            if key is None:
                return sum(duration[i] for i in ids)
            return sum(attrs[i][key] for i in done(ids))

        def self_time(ids):
            return sum(duration[i] - child_time.get(i, 0.0) for i in ids)

        def ratio(a, b):
            return a / b if b else 0.0

        per = 1.0 / rounds
        sim = spans("component.simulate_components")
        est = spans("component.r_component_combined")
        maps = set(spans("util.map_ordered"))
        sim_parallel = sum(
            1 for i in sim
            if any(k in maps and attrs[k] and attrs[k]["tasks"] > 1 for k in children.get(i, ()))
        )
        runs = done(spans("epidemic.run_epidemic"))
        plain = [i for i in runs if attrs[i]["plain"]]
        traced_runs = [i for i in runs if not attrs[i]["plain"]]
        closures = done(spans("epidemic.trace_closure"))
        sweep_spans = [i for name, ids in by_name.items() if name.startswith("sweep.") for i in ids]
        mc_evals = [i for i in done(spans("sweep.evaluate_target")) if attrs[i]["mc"]]
        mc_set = set(mc_evals)
        requested = sum(attrs[i]["replicates"] for i in mc_evals)
        discarded = 0
        for finder in spans("sweep.find_critical"):
            seq = sorted(k for k in children.get(finder, ()) if k in mc_set)
            for a, b in zip(seq, seq[1:]):
                # an estimate re-run at the same point with more replicates
                # was thrown away
                if (attrs[a]["params"] == attrs[b]["params"]
                        and attrs[b]["replicates"] > attrs[a]["replicates"]):
                    discarded += attrs[a]["replicates"]
        digital = spans("digital.r_component_digital") + spans("digital.r_individual_digital")
        jumps = total(sim, "jumps")
        return {
            "component.estimates": per * len(est),
            "component.replicates": per * total(sim, "replicates"),
            "component.jumps": per * jumps,
            "component.simulate_s": per * total(sim),
            "component.us_per_jump": 1e6 * ratio(total(done(sim)), jumps),
            "component.estimate_overhead_s": per * self_time(est),
            "component.capped": per * total(sim, "capped"),
            "util.pools_started": per * total(maps, "pool"),
            "util.map_s": per * total(maps),
            "util.parallel_call_ratio": ratio(sim_parallel, len(sim)),
            "epidemic.runs": per * len(runs),
            "epidemic.events": per * total(runs, "events"),
            "epidemic.us_per_event.plain_sir": 1e6 * ratio(total(plain), total(plain, "events")),
            "epidemic.us_per_event.contact_tracing":
                1e6 * ratio(total(traced_runs), total(traced_runs, "events")),
            "epidemic.closures": per * len(closures),
            "epidemic.closure_us": 1e6 * ratio(total(closures), len(closures)),
            "epidemic.closure_size": ratio(total(closures, "size"), len(closures)),
            "sweep.evaluations": per * len(spans("sweep.evaluate_target")),
            "sweep.mc_replicates": per * requested,
            "sweep.escalations": per * sum(
                1 for i in mc_evals if attrs[i]["replicates"] > attrs[i]["base"]),
            "sweep.self_s": per * self_time(sweep_spans),
            "sweep.replicate_use_ratio": ratio(requested - discarded, requested),
            "digital.evaluations": per * len(digital),
            "digital.series_terms": per * total(spans("digital.offspring_matrix_digital"), "terms"),
            "digital.s": per * total(digital),
        }


def pool_spinup_ms(map_ordered, repeats: int = 5) -> float:
    """Median time of ``map_ordered`` over two trivial tasks on two workers."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        map_ordered(abs, [0, 1], 2)
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)
