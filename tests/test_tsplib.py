import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsta import instances
from dsta.errors import ParseError, UnsupportedType
from dsta.problems import TspInstance
from dsta.tsplib import (
    _BLOCK_LINES,
    _ROW_BLOCK,
    _SECTION_KEYS,
    TsplibDocument,
    _geo_radians,
    build_distances,
    euclidean_matrix,
    geo_matrix,
    load_instance,
    parse_tsplib,
    triangle_matrix,
)

EUC_DOC = """NAME: tiny
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 3 4
3 6 0
EOF
"""

EXPLICIT_FULL = """NAME: m
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: FULL_MATRIX
EDGE_WEIGHT_SECTION
0 1 2
1 0 3
2 3 0
EOF
"""

# an EXPLICIT document may carry coordinates too; they are placed by node number as well
EXPLICIT_COORDS = EXPLICIT_FULL.replace("EOF\n", "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 0\nEOF\n")

LOWER_DIAG = """NAME: ld
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: LOWER_DIAG_ROW
EDGE_WEIGHT_SECTION
0
1 0
2 3 0
EOF
"""

UPPER_ROW = """NAME: ur
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: EXPLICIT
EDGE_WEIGHT_FORMAT: UPPER_ROW
EDGE_WEIGHT_SECTION
1 2
3
EOF
"""

GEO_DOC = """NAME: geo
TYPE: TSP
DIMENSION: 3
EDGE_WEIGHT_TYPE: GEO
NODE_COORD_SECTION
1 10.00 15.00
2 10.00 15.00
3 20.30 -5.15
EOF
"""


# reader behaviour -> (text, rounding, exception type, exact message); None means
# the text builds without raising or warning
READER_CASES = {
    "bad-dimension": (
        EUC_DOC.replace("DIMENSION: 3", "DIMENSION: three"), "real",
        ParseError, "line 3: bad DIMENSION 'three'",
    ),
    "unsupported-weight-format": (
        EXPLICIT_FULL.replace("FULL_MATRIX", "UPPER_DIAG_ROW"), "real",
        UnsupportedType, "unsupported EDGE_WEIGHT_FORMAT 'UPPER_DIAG_ROW'",
    ),
    "explicit-without-weight-section": (
        EXPLICIT_FULL.split("EDGE_WEIGHT_SECTION")[0], "real",
        ParseError, "EXPLICIT instance without EDGE_WEIGHT_SECTION",
    ),
    "coordinates-without-coord-section": (
        EUC_DOC.split("NODE_COORD_SECTION")[0], "real",
        ParseError, "coordinate instance without NODE_COORD_SECTION",
    ),
    "coordinate-row-without-three-fields": (
        EUC_DOC.replace("2 3 4", "2 3"), "real",
        ParseError, "line 7: expected 'index x y', got '2 3'",
    ),
    "non-numeric-weight": (
        EXPLICIT_FULL.replace("1 0 3", "1 zero 3"), "real",
        ParseError, "line 8: bad weight row '1 zero 3'",
    ),
    "explicit-without-format": (
        EXPLICIT_FULL.replace("EDGE_WEIGHT_FORMAT: FULL_MATRIX\n", ""), "real",
        UnsupportedType, "EXPLICIT weights need a supported format, got None",
    ),
    "weight-count-mismatch": (
        EXPLICIT_FULL.replace("2 3 0", "2 3 0 4"), "real",
        ParseError, "EDGE_WEIGHT_SECTION has 10 entries, expected 9 for FULL_MATRIX",
    ),
    "unknown-rounding": (
        EUC_DOC, "nearest",
        ValueError, "rounding must be 'real' or 'tsplib', got 'nearest'",
    ),
    "no-edge-weight-type": (
        EUC_DOC.replace("EDGE_WEIGHT_TYPE: EUC_2D\n", ""), "real",
        UnsupportedType, "cannot build distances for ''",
    ),
    "non-numeric-node-number": (
        EUC_DOC.replace("1 0 0", "x 0 0"), "real",
        ParseError, "line 6: bad node number 'x'",
    ),
    "repeated-node-number": (
        EUC_DOC.replace("2 3 4", "1 3 4"), "real",
        ParseError, "line 7: node number 1 repeated",
    ),
    "node-number-out-of-range": (
        EUC_DOC.replace("3 6 0", "4 6 0"), "real",
        ParseError, "line 8: node number 4 outside 1..3",
    ),
    "explicit-repeated-node-number": (
        EXPLICIT_COORDS.replace("2 3 4", "1 3 4"), "real",
        ParseError, "line 12: node number 1 repeated",
    ),
    "explicit-node-number-out-of-range": (
        EXPLICIT_COORDS.replace("3 6 0", "4 6 0"), "real",
        ParseError, "line 13: node number 4 outside 1..3",
    ),
    "repeated-coord-section": (
        EUC_DOC.replace("EOF\n", "NODE_COORD_SECTION\n1 9 9\n2 8 8\n3 7 7\nEOF\n"), "real",
        ParseError, "line 9: NODE_COORD_SECTION repeated",
    ),
    "repeated-weight-section": (
        EXPLICIT_FULL.replace("EOF\n", "EDGE_WEIGHT_SECTION\n0 1 2\n1 0 3\n2 3 0\nEOF\n"), "real",
        ParseError, "line 10: EDGE_WEIGHT_SECTION repeated",
    ),
    "ignored-keys-do-not-warn": (
        EUC_DOC.replace(
            "NAME: tiny",
            "NAME: tiny\nCOMMENT: x\nDISPLAY_DATA_TYPE: COORD_DISPLAY\nNODE_COORD_TYPE: TWOD_COORDS",
        ),
        "real", None, None,
    ),
}


class TestParse:
    def test_minimal_euc(self):
        doc = parse_tsplib(EUC_DOC)
        assert doc.name == "tiny"
        assert doc.dimension == 3
        assert doc.edge_weight_type == "EUC_2D"
        assert doc.coords.shape == (3, 2)

    @pytest.mark.parametrize("text", [EUC_DOC, EXPLICIT_COORDS], ids=["euc-2d", "explicit"])
    def test_rows_are_placed_by_node_number(self, text):
        shuffled = text.replace("1 0 0\n2 3 4\n3 6 0", "3 6 0\n1 0 0\n2 3 4")
        assert shuffled != text
        assert np.array_equal(parse_tsplib(shuffled).coords, [[0, 0], [3, 4], [6, 0]])

    def test_dimension_mismatch(self):
        bad = EUC_DOC.replace("DIMENSION: 3", "DIMENSION: 4")
        with pytest.raises(ParseError):
            parse_tsplib(bad)

    def test_unsupported_type(self):
        with pytest.raises(UnsupportedType):
            parse_tsplib(EUC_DOC.replace("TYPE: TSP", "TYPE: ATSP"))

    def test_unsupported_weight_type(self):
        with pytest.raises(UnsupportedType):
            parse_tsplib(EUC_DOC.replace("EUC_2D", "CEIL_2D"))

    def test_unknown_keyword_warns(self):
        with pytest.warns(UserWarning):
            parse_tsplib(EUC_DOC.replace("NAME: tiny", "NAME: tiny\nFROBNICATE: 7"))

    def test_bad_coordinate_row(self):
        with pytest.raises(ParseError):
            parse_tsplib(EUC_DOC.replace("2 3 4", "2 three 4"))

    def test_missing_dimension(self):
        with pytest.raises(ParseError):
            parse_tsplib("TYPE: TSP\nEOF\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, rounding, error, message", READER_CASES.values(), ids=READER_CASES.keys()
    )
    def test_reader_behaviour(self, text, rounding, error, message):
        if error is None:
            build_distances(parse_tsplib(text), rounding=rounding)
            return
        with pytest.raises(error) as exc:
            build_distances(parse_tsplib(text), rounding=rounding)
        assert type(exc.value) is error
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=400))
    def test_fuzz_never_crashes(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # unknown-keyword chatter
            try:
                parse_tsplib(text)
            except (ParseError, UnsupportedType):
                pass


def row_by_row_parse(text):
    """The reference: the row-by-row reader that parse_tsplib's blocked one replaced.

    Its sections are read as they were; of the header it keeps the keywords
    that the documents below hold, and of the final checks the coordinate ones.
    """
    doc = TsplibDocument()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if not line or line == "EOF":
            continue
        key, _, value = (part.strip() for part in line.partition(":"))
        head = key.split()[0] if key else ""
        if head in _SECTION_KEYS:
            body = []
            while i < len(lines):
                line = lines[i].strip()
                if not line or line == "EOF" or line.split()[0] in _SECTION_KEYS or ":" in line:
                    break
                body.append((i, line))
                i += 1
            if head == "NODE_COORD_SECTION":
                doc.coords = row_by_row_coords(body)
            elif head == "EDGE_WEIGHT_SECTION":
                doc.weights += [w for k, line in body for w in row_floats(k, line, line.split(), "weight")]
        elif key == "NAME":
            doc.name = value
        elif key == "DIMENSION":
            try:
                doc.dimension = int(value)
            except ValueError:
                raise ParseError(f"bad DIMENSION {value!r}", line=i) from None
        elif key == "EDGE_WEIGHT_TYPE":
            doc.edge_weight_type = value
    if doc.dimension <= 0:
        raise ParseError("missing or non-positive DIMENSION")
    if doc.coords is None:
        raise ParseError("coordinate instance without NODE_COORD_SECTION")
    if len(doc.coords) != doc.dimension:
        raise ParseError(f"DIMENSION {doc.dimension} but {len(doc.coords)} coordinate rows")
    return doc


def row_floats(k, line, tokens, what):
    try:
        return list(map(float, tokens))
    except ValueError:
        raise ParseError(f"bad {what} row {line!r}", line=k + 1) from None


def row_by_row_coords(body):
    n = len(body)
    placed = [None] * n
    for k, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'index x y', got {line!r}", line=k + 1)
        try:
            number = int(parts[0])
        except ValueError:
            raise ParseError(f"bad node number {parts[0]!r}", line=k + 1) from None
        if not 1 <= number <= n:
            raise ParseError(f"node number {number} outside 1..{n}", line=k + 1)
        if placed[number - 1] is not None:
            raise ParseError(f"node number {number} repeated", line=k + 1)
        placed[number - 1] = row_floats(k, line, parts[1:], "coordinate")
    return np.array(placed)


# tokens that Python's int and float accept, written as a file might: each converts as int() or float() does
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
NUMBER_SPELLINGS = [str, "+{}".format, "0{}".format, lambda k: str(k).translate(ARABIC_INDIC)]
FLOAT_SPELLINGS = ["1_000", "+3", "nan", "-nan", "inf", "-Infinity", "٣", "1e999", "-0.0"]
# each way a section ends, then rows that are not its data rows and a NAME read after it
ENDINGS = [
    "\n\n1 0 0", "\n\n1 0 0\nNAME: after", "\nEOF\n1 0 0\nNAME: after", "\nTOUR_SECTION\n1 0 0\nNAME: after",
    "\nCOMMENT : x\nNAME: after", "\n1 0: 0\nNAME: after", "", "\n",
]
COORD_FAULTS = [
    "two-fields", "four-fields", "number-1.0", "number-0", "number-past-rows", "number-repeated",
    "bad-coordinate", "ends-here",
]
WEIGHT_FAULTS = ["bad-weight", "weight-EOF", "row-starts-EOF", "keyword-inside-row", "ends-here"]


def coord_text(rng, rows, fault, at, ending):
    numbers = rng.permutation(rows) + 1
    body = []
    for k, number in enumerate(numbers):
        spell = NUMBER_SPELLINGS[rng.integers(len(NUMBER_SPELLINGS))] if rng.random() < 0.1 else str
        xy = [repr(v) if rng.random() > 0.05 else FLOAT_SPELLINGS[rng.integers(len(FLOAT_SPELLINGS))]
              for v in rng.normal(scale=1e3, size=2).tolist()]
        body.append([spell(int(number))] + xy)
    row = body[at]
    if fault == "two-fields":
        row.pop()
    elif fault == "four-fields":
        row.append("0")
    elif fault == "number-1.0":
        row[0] = f"{numbers[at]}.0"
    elif fault == "number-0":
        row[0] = "0"
    elif fault == "number-past-rows":
        row[0] = str(rows + 1)
    elif fault == "number-repeated":
        row[0] = str(numbers[rng.integers(rows)])
    elif fault == "bad-coordinate":
        row[1 + rng.integers(2)] = ["x", "1,5", "1.0.0"][rng.integers(3)]
    lines = [" ".join(r) for r in body]
    if fault == "ends-here":
        lines.insert(at, ending.splitlines()[1] if ending.strip() else "")
    head = f"TYPE: TSP\nDIMENSION: {rows}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
    return head + "\n".join(lines) + ending


def weight_text(rng, rows, fault, at, ending):
    body = [[repr(v) if rng.random() > 0.05 else FLOAT_SPELLINGS[rng.integers(len(FLOAT_SPELLINGS))]
             for v in rng.normal(scale=1e3, size=rng.integers(1, 5)).tolist()] for _ in range(rows)]
    row = body[at]
    if fault == "bad-weight":
        row[rng.integers(len(row))] = ["zero", "1,5", "1.0.0"][rng.integers(3)]
    elif fault == "weight-EOF":
        row.append("EOF")
    elif fault == "row-starts-EOF":
        row.insert(0, "EOF")
    elif fault == "keyword-inside-row":
        row.append("TOUR_SECTION")
    lines = [" ".join(r) for r in body]
    if fault == "ends-here":
        lines.insert(at, ending.splitlines()[1] if ending.strip() else "")
    # a coordinate document, so its weights are kept whatever their count
    head = "TYPE: TSP\nDIMENSION: 1\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEDGE_WEIGHT_SECTION\n"
    return head + "\n".join(lines) + ending


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


SECTIONS = {"coords": (coord_text, COORD_FAULTS), "weights": (weight_text, WEIGHT_FAULTS)}


class TestBlockedReader:
    """parse_tsplib converts data rows a block at a time and gives what a row-by-row read gives."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(sorted(SECTIONS)),
        st.sampled_from([1, _BLOCK_LINES - 1, _BLOCK_LINES, _BLOCK_LINES + 1, 2 * _BLOCK_LINES + 1]),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["first", "later"]),
        st.sampled_from(ENDINGS),
        st.data(),
    )
    def test_equals_row_by_row_read(self, section, rows, seed, where, ending, data):
        make, faults = SECTIONS[section]
        fault = data.draw(st.one_of(st.none(), st.sampled_from(faults)), label="fault")
        rng = np.random.default_rng(seed)
        later = where == "later" and rows > _BLOCK_LINES  # the bad row in a block after the first
        at = int(rng.integers(_BLOCK_LINES, rows) if later else rng.integers(min(rows, _BLOCK_LINES)))
        text = make(rng, rows, fault, at, ending)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # rows past an ending read as unknown keywords
            try:
                want = row_by_row_parse(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    parse_tsplib(text)
                assert type(got.value) is ParseError and str(got.value) == str(exc)
                return
            got = parse_tsplib(text)
        assert np.array_equal(bits(got.coords), bits(want.coords))
        assert np.array_equal(bits(got.weights), bits(want.weights)) and type(got.weights) is list
        assert (got.coords.shape, got.dimension, got.name) == (want.coords.shape, want.dimension, want.name)


class TestDistances:
    def test_euclidean_345(self):
        inst = build_distances(parse_tsplib(EUC_DOC))
        assert inst.matrix[0, 1] == pytest.approx(5.0)
        assert inst.matrix[0, 2] == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "text",
        [EXPLICIT_FULL, LOWER_DIAG, UPPER_ROW],
        ids=["FULL_MATRIX", "LOWER_DIAG_ROW", "UPPER_ROW"],
    )
    def test_explicit_passthrough(self, text):
        inst = build_distances(parse_tsplib(text))
        assert np.array_equal(inst.matrix, [[0, 1, 2], [1, 0, 3], [2, 3, 0]])

    @pytest.mark.parametrize("n", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1, 130])
    def test_triangle_formats_equal_full_matrix(self, n):
        a = np.random.default_rng(n).integers(0, 1000, size=(n, n))
        m = a + a.T  # symmetric, with a diagonal that loading sets to 0

        def text(fmt, rows):
            body = "\n".join(" ".join(map(str, row)) for row in rows)
            head = f"NAME: r{n}\nTYPE: TSP\nDIMENSION: {n}\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            return f"{head}EDGE_WEIGHT_FORMAT: {fmt}\nEDGE_WEIGHT_SECTION\n{body}\nEOF\n"

        full = build_distances(parse_tsplib(text("FULL_MATRIX", m))).matrix
        upper = build_distances(parse_tsplib(text("UPPER_ROW", [m[i, i + 1:] for i in range(n - 1)]))).matrix
        lower = build_distances(parse_tsplib(text("LOWER_DIAG_ROW", [m[i, :i + 1] for i in range(n)]))).matrix
        assert np.array_equal(upper, full) and np.array_equal(lower, full)

    @pytest.mark.parametrize("n", [1, 2, _ROW_BLOCK, 2 * _ROW_BLOCK + 1])
    def test_triangle_matrix_copies_each_listed_value_once(self, n):
        m = np.random.default_rng(n).normal(size=(n, n))
        m += m.T
        m[::3, ::2] = m[::2, ::3] = -0.0  # signs of zero survive a copy, not a sum
        without_diagonal = m.copy()
        np.fill_diagonal(without_diagonal, 0.0)
        for fmt, listed, want in (
            ("UPPER_ROW", np.triu_indices(n, 1), without_diagonal),
            ("LOWER_DIAG_ROW", np.tril_indices(n), m),
        ):
            got = triangle_matrix(m[listed], n, fmt)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), fmt

    def test_integer_rounding(self):
        shifted = EUC_DOC.replace("2 3 4", "2 3 4.4")
        real = build_distances(parse_tsplib(shifted), rounding="real")
        integer = build_distances(parse_tsplib(shifted), rounding="tsplib")
        assert real.matrix[0, 1] != integer.matrix[0, 1]
        assert integer.matrix[0, 1] == np.floor(real.matrix[0, 1] + 0.5)

    def test_geo_properties(self):
        inst = build_distances(parse_tsplib(GEO_DOC))
        m = inst.matrix
        assert m[0, 1] == 0  # identical coordinates
        assert m[0, 2] > 0
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0)

    def test_geo_integer_mode_truncates(self):
        real = build_distances(parse_tsplib(GEO_DOC), rounding="real").matrix[0, 2]
        integer = build_distances(parse_tsplib(GEO_DOC), rounding="tsplib").matrix[0, 2]
        assert integer == np.trunc(real + 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1000, 1000, allow_nan=False),
                st.floats(-1000, 1000, allow_nan=False),
            ),
            min_size=3,
            max_size=8,
        )
    )
    def test_metric_always_symmetric(self, points):
        rows = "\n".join(f"{i + 1} {x} {y}" for i, (x, y) in enumerate(points))
        doc = parse_tsplib(
            f"TYPE: TSP\nDIMENSION: {len(points)}\nEDGE_WEIGHT_TYPE: EUC_2D\n"
            f"NODE_COORD_SECTION\n{rows}\nEOF\n"
        )
        m = build_distances(doc).matrix
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0)
        assert (m >= 0).all()


def one_shot_distances(coords):
    """The whole-matrix formula that euclidean_matrix computes in row blocks."""
    x, y = coords.T
    with np.errstate(over="ignore"):
        d, dy = x[:, None] - x, y[:, None] - y
        d *= d
        dy *= dy
        d += dy
    return np.sqrt(d, out=d)


def one_shot_geo(coords, rounding):
    """The whole-matrix great-circle formula that build_distances computes in row blocks for GEO."""
    lat, lon = _geo_radians(coords[:, 0]), _geo_radians(coords[:, 1])
    q1 = np.cos(lon[:, None] - lon[None, :])
    q2 = np.cos(lat[:, None] - lat[None, :])
    q3 = np.cos(lat[:, None] + lat[None, :])
    arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
    d = 6378.388 * np.arccos(arg)
    if rounding == "tsplib":
        d = np.trunc(d + 1.0)
    np.fill_diagonal(d, 0.0)
    return d


def geo_coords(n, seed):
    """n random DDD.MM latitude, longitude pairs."""
    rng = np.random.default_rng(seed)
    return np.column_stack((rng.uniform(-89, 89, n), rng.uniform(-179, 179, n))).round(2)


def traced_peak(f):
    """(result, peak bytes that `f()` allocates beyond what was live when it started)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = f()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestBlockedBuild:
    @pytest.mark.parametrize("n", [3, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1])
    def test_equals_one_shot_formula_bit_for_bit(self, n):
        coords = np.random.default_rng(n).normal(scale=100.0, size=(n, 2))
        got, want = euclidean_matrix(coords), one_shot_distances(coords)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.filterwarnings("error")
    def test_overflow_gives_inf_in_the_same_entries(self):
        coords = np.random.default_rng(0).random((2 * _ROW_BLOCK + 1, 2))
        coords[::7] *= 1e200  # squared differences past float64's range
        got, want = euclidean_matrix(coords), one_shot_distances(coords)
        assert np.isinf(want).any() and np.isfinite(want).any()
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_tsplib_rounding_in_place_keeps_values(self):
        coords = np.random.default_rng(4).normal(scale=100.0, size=(2 * _ROW_BLOCK + 1, 2))
        doc = TsplibDocument(name="r", dimension=len(coords), edge_weight_type="EUC_2D", coords=coords)
        real = one_shot_distances(coords)
        np.fill_diagonal(real, 0.0)
        assert np.array_equal(build_distances(doc, rounding="tsplib").matrix, np.floor(real + 0.5))


class TestBlockedGeoBuild:
    @pytest.mark.parametrize("rounding", ["real", "tsplib"])
    @pytest.mark.parametrize("n", [3, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1, 700])
    def test_equals_one_shot_formula_bit_for_bit(self, n, rounding):
        coords = geo_coords(n, n)
        doc = TsplibDocument(name="g", dimension=n, edge_weight_type="GEO", coords=coords)
        got, want = build_distances(doc, rounding=rounding).matrix, one_shot_geo(coords, rounding)
        assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestExactSymmetry:
    """Every loaded instance is exactly symmetric; a GEO matrix already is, so it is held without a copy."""

    def test_allclose_only_full_matrix_loads_exactly_symmetric(self, tmp_path):
        path = tmp_path / "close.tsp"
        path.write_text(EXPLICIT_FULL.replace("2 3 0\n", "2.00000001 3 0\n"))
        inst = load_instance(str(path))
        m = np.array([[0, 1, 2], [1, 0, 3], [2.00000001, 3, 0]])
        assert inst.matrix.tobytes() == (0.5 * m + 0.5 * m.T).tobytes()
        assert (inst.matrix == inst.matrix.T).all()
        cut = instances.maxcut_from_tsp(inst)
        assert cut.weights.tobytes() == inst.matrix.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_geo_matrix_equals_its_transpose(self, seed):
        n = int(np.random.default_rng(seed).integers(3, 701))
        d = geo_matrix(geo_coords(n, seed))
        assert d.tobytes() == d.T.copy().tobytes()


class TestSetupMemory:
    """Set-up holds the distance matrix and no second n x n buffer."""

    N = 1000

    def doc(self):
        coords = np.random.default_rng(3).random((self.N, 2))
        return TsplibDocument(name="mem", dimension=self.N, edge_weight_type="EUC_2D", coords=coords)

    def test_euclidean_matrix_peak(self):
        coords = self.doc().coords
        d, peak = traced_peak(lambda: euclidean_matrix(coords))
        assert peak <= 1.25 * d.nbytes

    @pytest.mark.parametrize("rounding", ["real", "tsplib"])
    def test_build_distances_peak(self, rounding):
        doc = self.doc()
        inst, peak = traced_peak(lambda: build_distances(doc, rounding=rounding))
        assert peak <= 1.25 * inst.matrix.nbytes

    @pytest.mark.parametrize("rounding", ["real", "tsplib"])
    def test_geo_build_distances_peak(self, rounding):
        doc = TsplibDocument(name="mem", dimension=self.N, edge_weight_type="GEO", coords=geo_coords(self.N, 3))
        inst, peak = traced_peak(lambda: build_distances(doc, rounding=rounding))
        assert peak <= 1.25 * inst.matrix.nbytes

    def test_instance_check_allocates_little(self):
        # exactly symmetric, so no allclose pass: at most 5% of the matrix bytes
        m = one_shot_distances(self.doc().coords)
        inst, peak = traced_peak(lambda: TspInstance(matrix=m))
        assert inst.matrix is m
        assert peak <= 0.05 * m.nbytes
