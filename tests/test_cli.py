import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsta import bench, cli, engine, instances, problems, recording, tsplib
from dsta.engine import Mode, StaParams
from dsta.operators import Operator

FIVE_CITIES = (
    "NAME: five\nTYPE: TSP\nDIMENSION: 5\nEDGE_WEIGHT_TYPE: EUC_2D\n"
    "NODE_COORD_SECTION\n1 0 0\n2 3 0\n3 3 4\n4 0 4\n5 1 7\nEOF\n"
)
# finite coordinates whose squared distances overflow to inf
HUGE_COORDS = (
    "NAME: huge\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\n"
    "NODE_COORD_SECTION\n1 0 0\n2 1e200 0\n3 1e200 1e200\n4 0 1e200\nEOF\n"
)
# finite weights whose every tour sum overflows to inf
HUGE_WEIGHTS = (
    "NAME: big\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
    "EDGE_WEIGHT_FORMAT: UPPER_ROW\nEDGE_WEIGHT_SECTION\n1e308 1e308 1e308\n1e308 1e308\n1e308\nEOF\n"
)


def euc_2d_text(name, coords):
    rows = "".join(f"{i + 1} {x} {y}\n" for i, (x, y) in enumerate(coords))
    return (
        f"NAME: {name}\nTYPE: TSP\nDIMENSION: {len(coords)}\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        f"NODE_COORD_SECTION\n{rows}EOF\n"
    )


def params_from_record(record):
    """The StaParams a ResultRecord's trial ran with."""
    d = dict(record.params, mode=Mode(record.params["mode"]))
    if d["operator_set"] is not None:
        d["operator_set"] = tuple(Operator(op) for op in d["operator_set"])
    return StaParams(**d)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def tsp_file(tmp_path, text):
    path = tmp_path / "instance.tsp"
    path.write_text(text)
    return str(path)


class TestSolve:
    def test_rosenbrock_reaches_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "rosenbrock", "--n", "5", "--iters", "50", "--seed", "99"
        )
        assert code == 0
        assert "best: 0.000000" in out
        assert "solution: 3 3 3 3 3" in out  # indices decoding to all ones

    def test_config_echo_and_quiet(self, capsys):
        _, out, _ = run_cli(capsys, "solve", "rosenbrock", "--n", "4", "--iters", "5")
        cfg = json.loads(out.splitlines()[0].removeprefix("config: "))
        assert cfg["max_iters"] == 5 and cfg["mode"] == "dsta"
        _, quiet_out, _ = run_cli(
            capsys, "solve", "rosenbrock", "--n", "4", "--iters", "5", "-q"
        )
        assert not quiet_out.startswith("config:")

    def test_generated_tsp_prints_one_based_tour(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "tsp", "--n", "6", "--iters", "50", "--trials", "2"
        )
        assert code == 0
        tour_line = next(ln for ln in out.splitlines() if ln.startswith("tour:"))
        cities = sorted(int(tok) for tok in tour_line.split()[1:])
        assert cities == [1, 2, 3, 4, 5, 6]
        assert "mean:" in out

    def test_trace_and_out_files(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        out_file = tmp_path / "results.jsonl"
        code, _, _ = run_cli(
            capsys,
            "solve", "rosenbrock", "--n", "4", "--iters", "12", "--trials", "2",
            "--trace", str(trace), "--out", str(out_file),
        )
        assert code == 0
        with open(trace) as fh:
            rows = recording.read_trace(fh)
        assert len(rows) == 12
        with open(out_file) as fh:
            records = recording.read_results(fh)
        assert len(records) == 2
        assert all(r.algorithm == "dsta" for r in records)
        for r in records:
            assert r.wall_time > 0 and r.params["seed"] == r.seed
            assert engine.run(problems.rosenbrock_problem(4), params_from_record(r)).best_cost == r.best_cost

    def test_missing_file_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "solve", "tsp", "--file", "/nonexistent/x.tsp")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("flag", ["--file", "--out"])
    def test_directory_path_exit_code(self, capsys, tmp_path, flag):
        code, _, err = run_cli(capsys, "solve", "tsp", "--n", "5", "--iters", "2", flag, str(tmp_path))
        assert code == 1
        assert err.startswith("error: cannot read or write") and "Is a directory" in err

    def test_maxcut_reports_cut_weight(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "maxcut", "--n", "8", "--iters", "60"
        )
        assert code == 0
        best = float(next(ln for ln in out.splitlines() if ln.startswith("best:")).split()[1])
        assert best > 0  # shown as achieved cut weight, not the minimized form

    def test_maxcut_mean_and_std_are_of_cut_weights(self, capsys, tmp_path):
        # the std used to be of the QUBO values, twice the cut-weight std
        out_file = tmp_path / "results.jsonl"
        code, out, _ = run_cli(
            capsys, "solve", "maxcut", "--n", "12", "--iters", "5", "--trials", "3",
            "--seed", "3", "-q", "--out", str(out_file),
        )
        assert code == 0
        graph = instances.random_weighted_graph(12, 1.0, 0)
        with open(out_file) as fh:
            cuts = [problems.cut_from_qubo(r.best_cost, graph) for r in recording.read_results(fh)]
        assert np.std(cuts, ddof=1) > 0
        summary = next(ln for ln in out.splitlines() if ln.startswith("mean:")).split()
        assert summary == ["mean:", f"{np.mean(cuts):.6f}", "std:", f"{np.std(cuts, ddof=1):.6f}"]

    def test_tsp_file_with_reference_prints_error(self, capsys, tmp_path):
        coords = instances.random_euclidean_tsp(6, 1).coords
        path = tsp_file(tmp_path, euc_2d_text("kroA100", coords))
        code, out, _ = run_cli(capsys, "solve", "tsp", "--file", path, "--iters", "5", "-q")
        assert code == 0
        best = float(next(ln for ln in out.splitlines() if ln.startswith("best:")).split()[1])
        assert f"error: {problems.tsp_error(best, 21282):+.2f}% vs reference 21282" in out.splitlines()


class TestBench:
    def test_rosenbrock_suite_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench", "rosenbrock", "--sizes", "5", "--trials", "2", "--seed", "99", "-q",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("instance")
        body = [ln for ln in lines[1:] if ln.strip()]
        assert len(body) == 2  # one row per mode
        assert {ln.split()[2] for ln in body} == {"sta", "dsta"}

    def test_rosenbrock_suite_has_no_error_column_value(self, capsys):
        # Rosenbrock has no reference optimum to take a percent gap to
        code, out, _ = run_cli(capsys, "bench", "rosenbrock", "--sizes", "5", "10", "--trials", "2", "-q")
        assert code == 0
        body = [ln for ln in out.splitlines()[1:] if ln.strip()]
        assert len(body) == 4
        assert all(ln.split()[-1] == "-" for ln in body)

    def test_tsp_suite_error_column(self, capsys, tmp_path):
        # only an instance with a published optimum gets a percent gap
        paths = []
        for seed, name in enumerate(["kroA100", "six"]):
            path = tmp_path / f"{name}.tsp"
            path.write_text(euc_2d_text(name, instances.random_euclidean_tsp(6, seed).coords))
            paths.append(str(path))
        code, out, _ = run_cli(
            capsys, "bench", "tsp", "--files", *paths, "--trials", "2", "--iters", "5", "-q"
        )
        assert code == 0
        rows = [ln.split() for ln in out.splitlines()[1:]]
        assert [(r[0], r[1]) for r in rows] == [
            ("kroA100", "sta"), ("kroA100", "dsta"), ("six", "sta"), ("six", "dsta"),
        ]
        for name, _, best, _, _, error in rows:
            want = f"{problems.tsp_error(float(best), 21282):.2f}%" if name == "kroA100" else "-"
            assert error == want

    def test_trace_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        # only solve writes a trace; bench used to accept --trace and write nothing
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["bench", "rosenbrock", "--sizes", "5", "--trials", "2", "--trace", "t.csv"])
        assert exc.value.code == 1
        assert "--trace" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    def test_out_records(self, capsys, tmp_path):
        out_file = tmp_path / "bench.jsonl"
        run_cli(
            capsys,
            "bench", "rosenbrock", "--sizes", "5", "10", "--trials", "2", "--seed", "7", "--iters", "3", "-q",
            "--out", str(out_file),
        )
        with open(out_file) as fh:
            records = recording.read_results(fh)
        # one record per trial: 2 sizes x 2 modes x 2 trials, each with its own seed
        assert [(r.instance, r.algorithm) for r in records] == [
            (f"rosenbrock-{n}", mode) for n in (5, 10) for mode in ("sta", "dsta") for _ in range(2)
        ]
        seeds = [bench.derive_seed(7, i) for i in range(2)]
        assert [r.seed for r in records] == seeds * 4
        for r in records:
            assert r.wall_time is None and r.params["seed"] == r.seed and r.params["mode"] == r.algorithm
        # the suite's budget per size, not the --iters flag
        assert [r.params["max_iters"] for r in records] == [cli.ROSENBROCK_SUITE[5]] * 4 + [cli.ROSENBROCK_SUITE[10]] * 4
        for r in records:
            result = engine.run(problems.rosenbrock_problem(len(r.best_solution)), params_from_record(r))
            assert result.best_cost == r.best_cost and result.best_solution.tolist() == r.best_solution


class TestOracle:
    def test_rosenbrock(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "rosenbrock", "--n", "5")
        assert code == 0
        assert "optimum: 0.000000" in out
        assert "solution: 1 1 1 1 1" in out

    def test_tsp_too_large(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "tsp", "--n", "11")
        assert code == 2
        assert "error" in err

    def test_tsp_small(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "tsp", "--n", "5")
        assert code == 0
        tour_line = next(ln for ln in out.splitlines() if ln.startswith("tour:"))
        assert sorted(int(t) for t in tour_line.split()[1:]) == [1, 2, 3, 4, 5]

    def test_maxcut_reports_both_forms(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "maxcut", "--n", "6")
        assert code == 0
        assert "optimum (qubo):" in out
        assert "optimum (cut weight):" in out

    def test_maxcut_file_uses_the_file(self, capsys, tmp_path):
        path = tsp_file(tmp_path, FIVE_CITIES)
        graph = instances.maxcut_from_tsp(tsplib.load_instance(path))
        opt, _ = bench.brute_force_dvs(problems.maxcut_problem(graph))
        code, out, _ = run_cli(capsys, "oracle", "maxcut", "--file", path)
        assert code == 0
        assert f"optimum (qubo): {opt:.6f}" in out.splitlines()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    @pytest.mark.parametrize(
        "problem, text",
        [("tsp", HUGE_COORDS), ("tsp", HUGE_WEIGHTS), ("maxcut", HUGE_WEIGHTS)],
        ids=["tsp-inf-distances", "tsp-overflowing-tours", "maxcut-overflowing-qubo"],
    )
    def test_file_without_finite_optimum(self, capsys, tmp_path, problem, text):
        code, out, err = run_cli(capsys, "oracle", problem, "--file", tsp_file(tmp_path, text))
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""


class TestParsing:
    def test_operator_list_flag(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve", "rosenbrock", "--n", "4", "--iters", "5",
            "--operators", "substitute,swap",
        )
        assert code == 0
        cfg = json.loads(out.splitlines()[0].removeprefix("config: "))
        assert cfg["operator_set"] == ["substitute", "swap"]

    def test_substitute_on_tsp_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "solve", "tsp", "--n", "5", "--iters", "5", "--operators", "substitute",
        )
        assert code == 1
        assert "substitute" in err

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_cost_exit_code(self, capsys, tmp_path):
        # finite coordinates whose squared distances overflow to inf
        path = tmp_path / "huge.tsp"
        path.write_text(
            "NAME: huge\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 1e200 0\n3 1e200 1e200\n4 0 1e200\nEOF\n"
        )
        code, _, err = run_cli(capsys, "solve", "tsp", "--file", str(path), "--iters", "5")
        assert code == 1
        assert "distance matrix entries must be finite" in err

    @pytest.mark.filterwarnings("error")
    def test_non_finite_maxcut_file_stops_at_load(self, capsys, tmp_path):
        path = tsp_file(tmp_path, HUGE_COORDS)
        code, _, err = run_cli(capsys, "solve", "maxcut", "--file", path, "--iters", "5")
        assert code == 1
        assert "must be finite" in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_maxcut_file_stops_at_load(self, capsys, tmp_path):
        path = tsp_file(tmp_path, HUGE_WEIGHTS)
        code, _, err = run_cli(capsys, "solve", "maxcut", "--file", path, "--iters", "5")
        assert code == 1
        assert "QUBO form overflows" in err

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    @pytest.mark.parametrize("problem", ["tsp", "maxcut"])
    def test_undecodable_file_exit_code(self, capsys, tmp_path, command, problem):
        path = tmp_path / "bin.tsp"
        path.write_bytes(b"\xff" + FIVE_CITIES.encode())
        code, out, err = run_cli(capsys, command, problem, "--file", str(path))
        assert code == 1
        assert err.startswith(f"error: {path}: not UTF-8 text") and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [["solve", "tsp", "--operators", "foo"], ["solve", "tsp", "--no-such-flag"]],
        ids=["bad-operator", "unknown-flag"],
    )
    def test_usage_error_exit_code(self, capsys, argv):
        # 1 like every input error; 2 stays the oracle size bound's code (TestOracle)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_bad_operator_names_the_valid_ones(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "tsp", "--operators", "swap,foo"])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "'swap,foo'" in err
        assert all(op.value in err for op in Operator)
        assert "_operator_list" not in err

    @pytest.mark.parametrize(
        "argv",
        [["solve", "tsp", "--n", "5"], ["bench", "rosenbrock", "--sizes", "5"]],
        ids=["solve", "bench"],
    )
    def test_zero_trials(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--trials", "0", "-q")
        assert code == 1
        assert err.startswith("error: trials must be >= 1")

    def test_unset_flags_take_staparams_defaults(self):
        for argv in (["solve", "rosenbrock"], ["bench", "rosenbrock"]):
            assert cli._params_from(cli.build_parser().parse_args(argv)) == StaParams()

    def test_every_flag_sets_its_field(self):
        flags = [
            "--mode", "sta", "--se", "5", "--ma", "3", "--mb", "2", "--mc", "1", "--md", "2",
            "--p1", "0.5", "--p2", "0.25", "--iters", "7", "--seed", "3",
            "--operators", "substitute,swap",
        ]
        default = StaParams()
        for command in ("solve", "bench"):
            params = cli._params_from(cli.build_parser().parse_args([command, "rosenbrock", *flags]))
            assert [f.name for f in fields(StaParams) if getattr(params, f.name) == getattr(default, f.name)] == []
            assert params.mode is Mode.SIMPLE and params.max_iters == 7 and params.seed == 3
            assert params.operator_set == (Operator.SUBSTITUTE, Operator.SWAP)

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "tsp", "--n", "8", "--instance-seed", "-1"],
            ["solve", "maxcut", "--n", "8", "--instance-seed", "-1"],
            ["oracle", "tsp", "--instance-seed", "-1"],
            ["solve", "rosenbrock", "--n", "4", "--seed", "-5"],
        ],
        ids=["solve-tsp", "solve-maxcut", "oracle-tsp", "base-seed"],
    )
    def test_negative_seed_exit_code(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error:") and "seed must be >= 0" in err
        assert "best" not in out and "optimum" not in out

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["rosenbrock", "--p1", "-inf"], "p1 must be in [0,1], got -inf"),
            (["rosenbrock", "--p1=-inf"], "p1 must be in [0,1], got -inf"),
            (["rosenbrock", "--p2", "-inf"], "p2 must be in [0,1], got -inf"),
            (["maxcut", "--density", "-inf"], "density must be in [0,1], got -inf"),
            (["rosenbrock", "--p1", "-1e5"], "p1 must be in [0,1], got -100000.0"),
        ],
        ids=["p1", "p1-joined", "p2", "density", "p1-exponent"],
    )
    def test_negative_float_value_reaches_its_range_check(self, capsys, argv, message):
        # argparse used to take "-inf" for an option: "argument --p1: expected one argument"
        code, out, err = run_cli(capsys, "solve", *argv, "--iters", "2")
        assert code == 1
        assert err == f"error: {message}\n"
        assert "best" not in out

    def test_invalid_params_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "solve", "rosenbrock", "--n", "5", "--se", "0")
        assert code == 1
        assert "se" in err


class TestIgnoredInputRejected:
    def test_unknown_rosenbrock_suite_size(self, capsys):
        code, out, err = run_cli(capsys, "bench", "rosenbrock", "--sizes", "5", "7", "-q")
        assert code == 1
        assert "[7]" in err and "valid sizes: 5 10 20 50 100 200" in err
        assert "instance" not in out  # no table is printed

    @pytest.mark.parametrize("files", [[], ["--files"]], ids=["no-flag", "no-paths"])
    def test_tsp_suite_without_files(self, capsys, files):
        code, out, err = run_cli(capsys, "bench", "tsp", "-q", *files)
        assert code == 1
        assert "--files" in err
        assert "instance" not in out

    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_rosenbrock_with_file(self, capsys, tmp_path, command):
        path = tsp_file(tmp_path, FIVE_CITIES)
        code, out, err = run_cli(capsys, command, "rosenbrock", "--file", path)
        assert code == 1
        assert "--file" in err
        assert "optimum" not in out and "best" not in out


def _ints(top):
    """Integer flag values from 1 to `top`, then 0 and -1."""
    return st.sampled_from([str(v) for v in range(1, top + 1)] + ["0", "-1"])


_FLOATS = st.sampled_from(["-1", "0", "0.5", "1", "2", "nan", "inf", "-inf"])
_ALGORITHM = {
    "--mode": st.sampled_from(["sta", "dsta"]),
    "--se": _ints(8),
    "--ma": _ints(5),
    "--mb": _ints(4),
    "--mc": _ints(4),
    "--md": _ints(4),
    "--p1": _FLOATS,
    "--p2": _FLOATS,
    "--seed": _ints(3),
    "--operators": st.sampled_from(["swap", "substitute,shift", "symmetry,swap,shift", "swap,x"]),
    "-q": st.none(),
}
# --file names a missing path or a directory: both must end in a clean error
_FILE = st.sampled_from(["no-such-file.tsp", "."])
_INSTANCE = {
    "--density": _FLOATS,
    "--instance-seed": _ints(3),
    "--rounding": st.sampled_from(["real", "tsplib"]),
    "--file": _FILE,
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["solve", "bench", "oracle"]))
    if command == "bench":
        # the rosenbrock suite sets its own iteration budgets, so sizes and trials stay small here
        sizes = draw(st.sampled_from([["5"], ["5", "10"], ["7"], ["0"]]))
        head = [command, draw(st.sampled_from(["rosenbrock", "tsp"])), "--sizes", *sizes, "--trials", draw(_ints(2))]
        head += ["--iters", draw(_ints(3))]
        pool = {**_ALGORITHM, "--files": _FILE, "--rounding": _INSTANCE["--rounding"]}
    else:
        problem = draw(st.sampled_from(["tsp", "maxcut", "rosenbrock"]))
        oracle_tsp = (command, problem) == ("oracle", "tsp")
        head = [command, problem, "--n", draw(_ints(8 if oracle_tsp else 12))]
        pool = dict(_INSTANCE)
        if command == "solve":
            head += ["--iters", draw(_ints(3))]  # unset, it would be 1500
            pool.update(_ALGORITHM, **{"--trials": _ints(2)})
    tail = []
    for flag in draw(st.lists(st.sampled_from(sorted(pool)), unique=True, max_size=6)):
        value = draw(pool[flag])
        tail += [flag] if value is None else [flag, value]
    if draw(st.integers(0, 5)) == 0:  # now and then a flag missing its value, unknown, or not an integer
        tail += draw(st.sampled_from([["--trace"], ["--x"], ["--n", "nan"], ["--n", "inf"]]))
    return head + tail


class TestFuzz:
    @settings(max_examples=120, deadline=None)
    @given(argv=_argv())
    def test_every_argv_exits_cleanly(self, argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 1, 2), argv
