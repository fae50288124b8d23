"""Measurement loop, in-memory tracing and metrics for one workload run.

Nothing under src/ is edited.  Tracing swaps wrappers in for module
attributes of the package (`engine.run`, `engine.operator_round`, ...) for the
length of one traced batch, and wraps `Problem.evaluate_many` through
`dataclasses.replace`.  The package looks these names up at call time, so the
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import platform
import resource
import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np

from dsta import bench, engine, instances, recording, tsplib

from workloads import COST_RTOL, Run, Workload

SETUP_SAMPLES = 5
SETUP_MIN_S = 0.05  # each set-up sample repeats the build until it lasts this long
OPS = ("swap", "shift", "symmetry", "substitute")
SETUP_SPANS = ("tsplib.parse_tsplib", "tsplib.build_distances", "instances.random_weighted_graph")


class Tracer:
    """Spans (name, start, end, parent) in flat arrays, plus counters.

    Counts are taken at the same boundaries as the spans, from outside the
    package: the state a wrapped call receives is compared with what it
    returns.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span.  Plain open/close calls rather than
        a context manager: spans are opened ~10^4 times a second."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, count_result: str | None = None):
        """fn wrapped in a span; `count_result` adds its return value to a counter."""

        def traced(*args, **kwargs):
            out = self._call(name, fn, *args, **kwargs)
            if count_result:
                self.counts[count_result] += out
            return out

        return traced

    def _sample_batch(self, fn):
        def traced(state, op, *args, **kwargs):
            out = self._call(f"operators.{op.value}.sample", fn, state, op, *args, **kwargs)
            idx = self._open("trace.count")
            self.counts[f"operators.{op.value}.rows"] += len(out)
            self.counts[f"operators.{op.value}.identity_rows"] += int((out == state).all(axis=1).sum())
            self._close(idx)
            return out

        return traced

    def _operator_round(self, fn):
        def traced(state, *args, **kwargs):
            before, cost = state.current, state.current_cost
            out = self._call("engine.operator_round", fn, state, *args, **kwargs)
            self.counts["engine.rounds"] += 1
            if out.current is not before:  # an accepted candidate replaces the array
                self.counts["engine.improving" if out.current_cost < cost else "engine.risk_accepts"] += 1
            return out

        return traced

    def _restore_step(self, fn):
        def traced(state, *args, **kwargs):
            before = state.current
            out = self._call("engine.restore_step", fn, state, *args, **kwargs)
            self.counts["engine.restores"] += out.current is not before
            return out

        return traced

    def traced_problem(self, problem):
        fn = problem.evaluate_many
        span = self.wrap("problems.evaluate_many", fn)

        def evaluate_many(states):
            self.counts["problems.rows"] += len(states)
            return span(states)

        return dataclasses.replace(problem, evaluate_many=evaluate_many)

    @contextlib.contextmanager
    def patched(self):
        """Trace the package's public calls for the length of the block."""
        targets = [
            (engine, "sample_batch", self._sample_batch),
            (engine, "operator_round", self._operator_round),
            (engine, "restore_step", self._restore_step),
            (engine, "run", None),
            (bench, "run_trials", None),
            (bench, "compare_modes", None),
            (tsplib, "parse_tsplib", None),
            (tsplib, "build_distances", None),
            (instances, "random_weighted_graph", None),
            (recording, "write_results", "recording.bytes"),
            (recording, "write_trace", "recording.bytes"),
        ]
        with contextlib.ExitStack() as stack:
            for module, attr, how in targets:
                fn = getattr(module, attr)
                name = f"{module.__name__.rpartition('.')[2]}.{attr}"
                new = how(fn) if callable(how) else self.wrap(name, fn, count_result=how)
                stack.enter_context(mock.patch.object(module, attr, new))
            yield

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
        }

    def totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time and call count per span name.

        Self time is a span's duration minus the durations of its children;
        calls are strictly nested, so children never overlap.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros(len(dur))
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        k = len(self.names)
        self_s = np.bincount(a["name_id"], weights=dur - child, minlength=k)
        calls = np.bincount(a["name_id"], minlength=k)
        return dict(zip(self.names, self_s.tolist())), dict(zip(self.names, calls.tolist()))

    def root_seconds(self, exclude: tuple[str, ...]) -> float:
        a = self.arrays()
        roots = a["parent"] < 0
        keep = roots & ~np.isin(a["name_id"], [self._ids[n] for n in exclude if n in self._ids])
        return float((a["end"] - a["start"])[keep].sum())


class Capture:
    """Collects every engine.run call as a Run, in all modes, at one call's cost per trial."""

    def __init__(self):
        self.runs: list[Run] = []

    @contextlib.contextmanager
    def installed(self):
        run = engine.run

        def captured(problem, params):
            result = run(problem, params)
            self.runs.append(Run(params, result))
            return result

        with mock.patch.object(engine, "run", captured):
            yield self


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
    }


def check_run(workload: Workload, run: Run) -> list[str]:
    """The output checks every trial must pass."""
    res = run.result
    sol = np.asarray(res.best_solution)
    errors = []
    if not workload.feasible(sol):
        errors.append("best_solution is infeasible")
    else:
        own = workload.cost(sol)
        if abs(own - res.best_cost) > COST_RTOL * max(abs(own), 1.0):
            errors.append(f"best_cost {res.best_cost!r} but re-evaluation gives {own!r}")
    inc = [row[2] for row in res.trace]
    if len(inc) != run.params.max_iters or inc[-1] != res.best_cost:
        errors.append("trace length or final incumbent disagrees with the result")
    if any(b > a for a, b in zip(inc, inc[1:])):
        errors.append("incumbent trace increases")
    if res.evaluations != workload.evaluations():
        errors.append(f"evaluations {res.evaluations}, expected {workload.evaluations()}")
    return errors


class SpeedProbe:
    """Fixed reference work, timed next to every measured interval.

    The speed of a shared machine drifts, by up to 2x over minutes on a
    2-core cloud VM, for the package and any other code alike.  Each batch
    time is divided by the mean slowdown probed just before and after it, and
    the set-up time by the median slowdown probed around its samples, so
    times are reported in seconds at a fixed reference speed and runs made at
    different moments compare.  The work mixes what the package spends its
    time on: small-array numpy calls, random gathers from an 8 MB matrix, and
    a dense quadratic form.  REF_S holds each part's seconds at the reference
    speed.
    """

    REF_S = (0.0013, 0.0019, 0.0025)

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.integers(0, 5, size=(32, 200))
        self.big = rng.random((1024, 1024))
        self.rows = rng.integers(0, 1024, size=(32, 2000))
        self.q = rng.random((200, 200))
        self.signs = 2 * rng.integers(0, 2, size=(32, 200)) - 1

    def slowdown(self) -> float:
        """Time the reference work; 1.0 means the reference speed.

        Each part keeps its fastest of three repeats, which drops one-off
        interruptions but not a slower machine.
        """
        best = [float("inf")] * 3
        for _ in range(3):
            t0 = perf_counter()
            for _ in range(50):
                s = self.small.copy()
                s[:, 1:] += s[:, :-1]
                int(np.argmin(s.sum(axis=1)) + (s == s[0]).all(axis=1).sum())
            t1 = perf_counter()
            self.big[self.rows, np.roll(self.rows, -1, axis=1)].sum(axis=1)
            t2 = perf_counter()
            np.einsum("ij,jk,ik->i", self.signs, self.q, self.signs)
            t3 = perf_counter()
            best = [min(b, t) for b, t in zip(best, (t1 - t0, t2 - t1, t3 - t2))]
        return statistics.fmean(b / r for b, r in zip(best, self.REF_S))


def time_setup(workload: Workload, inputs, probe: SpeedProbe):
    """Set up SETUP_SAMPLES times, probing the machine speed around each.

    Returns the raw seconds per set-up, one per sample, the probed
    slowdowns, and the last build.
    """
    raw, slow = [], [probe.slowdown()]
    for _ in range(SETUP_SAMPLES):
        built = None  # release the previous build before timing the next
        reps, t0 = 0, perf_counter()
        while reps == 0 or perf_counter() - t0 < SETUP_MIN_S:
            built = workload.setup(inputs)
            reps += 1
        raw.append((perf_counter() - t0) / reps)
        slow.append(probe.slowdown())
    return raw, slow, built


@dataclasses.dataclass
class Batches:
    """Wall times of batches: raw, divided by the machine slowdown, and their evaluations."""

    raw: list = dataclasses.field(default_factory=list)
    adjusted: list = dataclasses.field(default_factory=list)
    evals: int = 0

    def run(self, workload: Workload, problem, base_seed: int, capture: Capture, probe: SpeedProbe, slow: float):
        """Time one batch; returns its runs, what it recorded and the slowdown after it."""
        capture.runs = []
        t0 = perf_counter()
        recorded = workload.solve(problem, base_seed, capture.runs)
        wall = perf_counter() - t0
        after = probe.slowdown()
        self.raw.append(wall)
        self.adjusted.append(wall / ((slow + after) / 2))
        self.evals += sum(r.result.evaluations for r in capture.runs)
        return capture.runs, recorded, after


def measure(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path | None = None):
    """One benchmark run.  Returns (result line, details) as dicts."""
    env = environment()
    probe = SpeedProbe()
    inputs = workload.make_inputs(seed)
    tracer = Tracer() if trace else None
    capture = Capture()
    with capture.installed():
        with tracer.patched() if tracer else contextlib.nullcontext():
            setup_raw, setup_slow, (problem, inst) = time_setup(workload, inputs, probe)
        errors = workload.reference(inputs, inst)
        traced_problem = tracer.traced_problem(problem) if tracer else None

        plain, traced = Batches(), Batches()
        quality, failed, attempted, counts = [], 0, 0, None
        b, t_start = 0, perf_counter()
        slow = probe.slowdown()
        while b < workload.min_batches or perf_counter() - t_start < seconds:
            base_seed = seed * 100_000 + b
            runs, recorded, slow = plain.run(workload, problem, base_seed, capture, probe, slow)
            batch_errors = workload.check_batch(runs, recorded)
            for run in runs:
                run_errors = batch_errors + check_run(workload, run)
                attempted += 1
                failed += bool(run_errors)
                errors += run_errors
                if b < workload.min_batches:
                    quality.append(workload.quality(run.result.best_cost))
            if tracer:
                # the same batch again, traced: identical work, so the pair gives the overhead
                with tracer.patched():
                    _, _, slow = traced.run(workload, traced_problem, base_seed, capture, probe, slow)
                if b + 1 == workload.min_batches:
                    counts = Counter(tracer.counts)
            b += 1

    failed_frac = failed / attempted
    details = {
        "workload": workload.name,
        "seed": seed,
        "env": env,
        "batches": b,
        "trials_per_batch": attempted // b,
        "samples": {"setup_s": len(setup_raw), "trial_s_p50": len(plain.adjusted)},
        "slowdown_median": statistics.median(r / a for r, a in zip(plain.raw, plain.adjusted)),
        "unadjusted": {
            "setup_s": statistics.median(setup_raw),
            "evals_per_s": plain.evals / sum(plain.raw),
            "trial_s_p50": statistics.median(plain.raw),
        },
        "failed_frac": failed_frac,
        "errors": errors[:5],
    }
    if tracer:
        metrics = per_layer(tracer, counts, plain, traced)
        metrics["failed_frac"] = (failed_frac, "ratio")
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"spans-{workload.name}-seed{seed}.npz"
            np.savez(path, **tracer.arrays())
            details["spans_file"] = str(path)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_raw) / statistics.median(setup_slow), "s"),
            "evals_per_s": (plain.evals / sum(plain.adjusted), "1/s"),
            "trial_s_p50": (statistics.median(plain.adjusted), "s"),
            "best_cost_mean": (statistics.fmean(quality), "cost"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, details


def per_layer(tracer: Tracer, counts: Counter, plain: Batches, traced: Batches) -> dict:
    """Per-layer metrics.  Seconds are self time per batch, scaled by the
    traced batches' mean machine slowdown; counts cover the first min_batches
    batches, so they repeat exactly for a seed."""
    self_s, calls = tracer.totals()
    n = len(traced.raw)
    scale = sum(traced.adjusted) / sum(traced.raw)
    self_s = {name: t * scale for name, t in self_s.items()}
    untraced_eps, traced_eps = plain.evals / sum(plain.adjusted), traced.evals / sum(traced.adjusted)

    def per_batch(*names):
        return sum(self_s.get(x, 0.0) for x in names) / n

    def per_call(name):
        return self_s[name] / calls[name] if name in calls else 0.0

    m = {
        "tsplib.parse_s": (per_call("tsplib.parse_tsplib"), "s"),
        "tsplib.build_s": (per_call("tsplib.build_distances"), "s"),
        "instances.graph_s": (per_call("instances.random_weighted_graph"), "s"),
        "problems.evaluate_s": (per_batch("problems.evaluate_many"), "s/trial"),
        "problems.rows": (counts["problems.rows"], "count"),
        "problems.us_per_row": (1e6 * self_s["problems.evaluate_many"] / tracer.counts["problems.rows"], "us/row"),
    }
    for op in OPS:
        m[f"operators.{op}.sample_s"] = (per_batch(f"operators.{op}.sample"), "s/trial")
        m[f"operators.{op}.rows"] = (counts[f"operators.{op}.rows"], "count")
        m[f"operators.{op}.identity_rows"] = (counts[f"operators.{op}.identity_rows"], "count")
    m.update({
        "engine.round_self_s": (per_batch("engine.operator_round"), "s/trial"),
        "engine.restore_s": (per_batch("engine.restore_step"), "s/trial"),
        "engine.run_self_s": (per_batch("engine.run"), "s/trial"),
        "engine.rounds": (counts["engine.rounds"], "count"),
        "engine.improving": (counts["engine.improving"], "count"),
        "engine.risk_accepts": (counts["engine.risk_accepts"], "count"),
        "engine.restores": (counts["engine.restores"], "count"),
        "bench.trials_self_s": (per_batch("bench.run_trials", "bench.compare_modes"), "s/trial"),
        "recording.write_s": (per_batch("recording.write_results", "recording.write_trace"), "s/trial"),
        "recording.bytes": (counts["recording.bytes"], "count"),
        "trace.overhead_pct": (100.0 * (untraced_eps / traced_eps - 1.0), "%"),
        "trace.coverage_pct": (100.0 * tracer.root_seconds(SETUP_SPANS) / sum(traced.raw), "%"),
    })
    return m
