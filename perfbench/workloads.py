"""The benchmark's workloads: seeded inputs, the package calls each one times,
and the benchmark's own cost formulas that check every trial.

The package receives only generated inputs: TSPLIB text, a graph size and
seed for `instances.random_weighted_graph`, and one base seed per batch.
Every cost is re-derived here from those inputs, with formulas that share no
code with `dsta.problems`.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from dsta import bench, instances, problems, recording, tsplib
from dsta.engine import RunResult, StaParams

# relative tolerance between a reported best_cost and the re-evaluation here
COST_RTOL = 1e-9


@dataclass
class Run:
    """One engine.run call seen from outside: the params it got and its result."""

    params: StaParams
    result: RunResult


class Workload:
    """A problem family at one size plus the trial protocol run on it.

    A batch is one call into `dsta.bench` for one trial.  Every run of the
    benchmark makes at least `min_batches` batches; quality and counters are
    reported over exactly those, so they repeat for a given seed.
    """

    name: str
    n_ops: int  # operators per iteration under the default operator set

    def __init__(self, iters: int, min_batches: int):
        self.params = StaParams(max_iters=iters)
        self.min_batches = min_batches

    def evaluations(self) -> int:
        """Evaluations a correct trial reports: the initial state plus se per round."""
        return 1 + self.params.max_iters * self.n_ops * self.params.se

    def solve(self, problem, base_seed: int, runs: list[Run]):
        """Run one batch through `dsta.bench`; `runs` fills with its engine runs."""
        bench.run_trials(problem, self.params, 1, base_seed=base_seed)

    def check_batch(self, runs: list[Run], recorded) -> list[str]:
        return []


@dataclass
class TspInputs:
    coords: np.ndarray
    text: str


class Tsp(Workload):
    """Uniform points in the unit square, loaded from TSPLIB EUC_2D text."""

    n_ops = 3  # substitute does not act on permutations

    def __init__(self, n: int = 2000, iters: int = 300, min_batches: int = 8):
        super().__init__(iters, min_batches)
        self.name = f"tsp-{n}"
        self.n = n

    def make_inputs(self, seed: int) -> TspInputs:
        coords = np.random.default_rng(seed).random((self.n, 2))
        rows = [f"{i + 1} {x!r} {y!r}" for i, (x, y) in enumerate(coords.tolist())]
        header = [
            f"NAME : uniform{self.n}-s{seed}",
            "TYPE : TSP",
            f"DIMENSION : {self.n}",
            "EDGE_WEIGHT_TYPE : EUC_2D",
            "NODE_COORD_SECTION",
        ]
        return TspInputs(coords, "\n".join(header + rows + ["EOF", ""]))

    def setup(self, inputs: TspInputs):
        inst = tsplib.build_distances(tsplib.parse_tsplib(inputs.text))
        return problems.tsp_problem(inst), inst

    def reference(self, inputs: TspInputs, inst) -> list[str]:
        """Keep the coordinates as ground truth; check the parsed matrix against them."""
        self.coords = inputs.coords
        c = inputs.coords
        own = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
        if inst.matrix.shape != own.shape:
            return [f"distance matrix shape {inst.matrix.shape}, expected {own.shape}"]
        err = float(np.abs(inst.matrix - own).max())
        if err > COST_RTOL * float(own.max()):
            return [f"distance matrix differs from the coordinates by {err}"]
        return []

    def feasible(self, sol: np.ndarray) -> bool:
        return len(sol) == self.n and np.array_equal(np.sort(sol), np.arange(self.n))

    def cost(self, sol: np.ndarray) -> float:
        legs = np.diff(self.coords[np.append(sol, sol[0])], axis=0)
        return float(np.hypot(legs[:, 0], legs[:, 1]).sum())

    def quality(self, best_cost: float) -> float:
        return best_cost


class MaxCut(Workload):
    """Random dense weighted graph, minimized in its fixed-last-vertex QUBO form."""

    n_ops = 4

    def __init__(self, n: int = 400, density: float = 0.5, iters: int = 40, min_batches: int = 4):
        super().__init__(iters, min_batches)
        self.name = f"maxcut-{n}"
        self.n, self.density = n, density

    def make_inputs(self, seed: int) -> int:
        return seed  # the package's graph generator takes the seed itself

    def setup(self, graph_seed: int):
        inst = instances.random_weighted_graph(self.n, self.density, graph_seed)
        return problems.maxcut_problem(inst), inst

    def reference(self, graph_seed: int, inst) -> list[str]:
        """Keep the upper-triangle edge list of the generated graph."""
        w = inst.weights
        if w.shape != (self.n, self.n) or not np.array_equal(w, w.T) or np.any(np.diag(w)):
            return ["generated graph is not a symmetric zero-diagonal n x n matrix"]
        self.iu = np.triu_indices(self.n, k=1)
        self.edge_w = w[self.iu]
        self.total = float(self.edge_w.sum())
        return []

    def feasible(self, sol: np.ndarray) -> bool:
        return len(sol) == self.n - 1 and bool(np.all((sol == 0) | (sol == 1)))

    def cost(self, sol: np.ndarray) -> float:
        # vertex n-1 is fixed at +1; P = sum over edges of w_ij * y_i * y_j
        y = np.append(2 * sol.astype(np.int64) - 1, 1)
        return float((self.edge_w * y[self.iu[0]] * y[self.iu[1]]).sum())

    def quality(self, best_cost: float) -> float:
        """Weight left uncut: P = uncut - cut and total = uncut + cut, so it is
        (total + P) / 2, positive, and ordered like P."""
        return 0.5 * (self.total + best_cost)


class RosenModes(Workload):
    """Paired sta/dsta trials on integer Rosenbrock, recorded to memory."""

    n_ops = 4

    def __init__(self, n: int = 200, iters: int = 200, min_batches: int = 64):
        super().__init__(iters, min_batches)
        self.name = f"rosen-{n}-modes"
        self.n = n

    def make_inputs(self, seed: int) -> None:
        return None

    def setup(self, inputs: None):
        return problems.rosenbrock_problem(self.n), None

    def reference(self, inputs: None, inst) -> list[str]:
        return []

    def feasible(self, sol: np.ndarray) -> bool:
        return len(sol) == self.n and bool(np.all((sol >= 0) & (sol <= 4)))

    def cost(self, sol: np.ndarray) -> float:
        x = sol.astype(np.int64) - 2  # alphabet index 0..4 is the value -2..2
        return float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (x[:-1] - 1) ** 2))

    def quality(self, best_cost: float) -> float:
        return best_cost

    def solve(self, problem, base_seed: int, runs: list[Run]):
        bench.compare_modes(problem, self.params, 1, base_seed=base_seed)
        records = [
            recording.ResultRecord(
                instance=problem.name,
                algorithm=r.params.mode.value,
                params=recording.params_dict(r.params),
                seed=r.params.seed,
                best_cost=r.result.best_cost,
                wall_time=r.result.wall_time,
                best_solution=r.result.best_solution.tolist(),
            )
            for r in runs
        ]
        results_sink = io.StringIO()
        recording.write_results(records, results_sink)
        trace_sinks = []
        for r in runs:
            trace_sinks.append(io.StringIO())
            recording.write_trace(r.result.trace, trace_sinks[-1])
        return records, results_sink, trace_sinks

    def check_batch(self, runs: list[Run], recorded) -> list[str]:
        records, results_sink, trace_sinks = recorded
        errors = []
        if [r.params.mode.value for r in runs] != ["sta", "dsta"]:
            errors.append("compare_modes did not run one sta and one dsta trial")
        elif runs[0].params.seed != runs[1].params.seed:
            errors.append("compare_modes paired trials with different seeds")
        if recording.read_results(io.StringIO(results_sink.getvalue())) != records:
            errors.append("result records do not read back equal")
        for r, sink in zip(runs, trace_sinks):
            if recording.read_trace(io.StringIO(sink.getvalue())) != list(r.result.trace):
                errors.append("trace CSV does not read back equal")
        return errors


# workload name -> constructor with the benchmark sizes
WORKLOADS = {"tsp-2000": Tsp, "maxcut-400": MaxCut, "rosen-200-modes": RosenModes}
