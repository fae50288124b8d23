import io
import json

import pytest

from dsta import recording
from dsta.engine import Mode, StaParams
from dsta.errors import ParseError
from dsta.operators import Operator
from dsta.recording import ResultRecord


def sample_records():
    params = recording.params_dict(StaParams(seed=5))
    return [
        ResultRecord(
            instance="rosenbrock-5",
            algorithm="dsta",
            params=params,
            seed=5,
            best_cost=0.0,
            wall_time=0.01,
            best_solution=[3, 3, 3, 3, 3],
        ),
        ResultRecord(
            instance="rand-euc-6-s0",
            algorithm="sta",
            params=params,
            seed=6,
            best_cost=2.5,
            wall_time=0.02,
        ),
    ]


class TestParamsDict:
    def test_mode_and_operators_serialized_as_strings(self):
        p = StaParams(mode=Mode.SIMPLE, operator_set=(Operator.SWAP, Operator.SYMMETRY))
        d = recording.params_dict(p)
        assert d["mode"] == "sta"
        assert d["operator_set"] == ["swap", "symmetry"]

    def test_default_operator_set_is_null(self):
        assert recording.params_dict(StaParams())["operator_set"] is None


class TestResults:
    def test_roundtrip(self):
        buf = io.StringIO()
        recording.write_results(sample_records(), buf)
        buf.seek(0)
        assert recording.read_results(buf) == sample_records()

    def test_one_line_per_record(self):
        buf = io.StringIO()
        recording.write_results(sample_records(), buf)
        lines = [ln for ln in buf.getvalue().splitlines() if ln]
        assert len(lines) == 2

    def test_byte_count_and_determinism(self):
        a, b = io.StringIO(), io.StringIO()
        na = recording.write_results(sample_records(), a)
        nb = recording.write_results(sample_records(), b)
        assert a.getvalue() == b.getvalue()
        assert na == nb == len(a.getvalue().encode())

    def test_blank_lines_ignored_on_read(self):
        buf = io.StringIO()
        recording.write_results(sample_records(), buf)
        padded = io.StringIO(buf.getvalue() + "\n\n")
        assert len(recording.read_results(padded)) == 2

    @pytest.mark.parametrize(
        "bad",
        [
            lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "seed"}),
            lambda line: json.dumps(dict(json.loads(line), extra=1)),
            lambda line: line[:-1],
            lambda line: "[]",
        ],
        ids=["missing-key", "unknown-key", "not-json", "not-an-object"],
    )
    def test_malformed_record_names_its_line(self, bad):
        buf = io.StringIO()
        recording.write_results(sample_records(), buf)
        first, second = buf.getvalue().splitlines()
        with pytest.raises(ParseError, match="^line 3: ") as exc:
            recording.read_results(io.StringIO(f"{first}\n\n{bad(second)}\n"))
        assert exc.value.line == 3


class TestTraces:
    trace = [(0, 10.5, 10.5), (1, 12.25, 10.5), (2, 0.1 + 0.2, 0.1 + 0.2)]

    def test_roundtrip_exact_floats(self):
        buf = io.StringIO()
        recording.write_trace(self.trace, buf)
        buf.seek(0)
        assert recording.read_trace(buf) == self.trace

    def test_header(self):
        buf = io.StringIO()
        recording.write_trace(self.trace, buf)
        assert buf.getvalue().splitlines()[0] == "iteration,current_cost,incumbent_cost"

    def test_empty_trace(self):
        buf = io.StringIO()
        recording.write_trace([], buf)
        buf.seek(0)
        assert recording.read_trace(buf) == []

    def test_blank_lines_ignored_on_read(self):
        buf = io.StringIO()
        recording.write_trace(self.trace, buf)
        padded = io.StringIO(buf.getvalue().replace("\n", "\n\n") + "\n")
        assert recording.read_trace(padded) == self.trace

    def test_missing_header_names_line_1(self):
        buf = io.StringIO()
        recording.write_trace(self.trace, buf)
        for text in (buf.getvalue().split("\n", 1)[1], ""):  # rows without their header, and an empty file
            with pytest.raises(ParseError, match="^line 1: expected the header") as exc:
                recording.read_trace(io.StringIO(text))
            assert exc.value.line == 1

    @pytest.mark.parametrize("row", ["2,0.5", "2,0.5,x", "2.5,0.5,0.5", "2,0.5,0.5,0.5"])
    def test_malformed_row_names_its_line(self, row):
        buf = io.StringIO()
        recording.write_trace(self.trace, buf)
        with pytest.raises(ParseError, match="^line 5: ") as exc:
            recording.read_trace(io.StringIO(buf.getvalue() + row + "\n"))
        assert exc.value.line == 5
