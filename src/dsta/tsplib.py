"""Minimal TSPLIB reader for symmetric TSP instances.

Supports EUC_2D, GEO and EXPLICIT edge weights (FULL_MATRIX, LOWER_DIAG_ROW,
UPPER_ROW).  GEO follows the standard great-circle convention: coordinates
are DDD.MM degree-minute pairs and distances use the 6378.388 km earth
radius.  Distances can be built either unrounded ("real") or with the
TSPLIB nearest-integer convention ("tsplib").  `parse_tsplib` checks the
header values, every data row and each count against DIMENSION; it places
every document's coordinate rows by node number, 1..rows each exactly once.
`build_distances` re-checks the weight count of hand-built documents.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnsupportedType
from .problems import TspInstance

_GEO_RADIUS = 6378.388
_ROW_BLOCK = 32  # rows of a matrix built or mirrored at a time: with their y differences, 1 MB at n = 2000

_IGNORED_KEYS = {"COMMENT", "DISPLAY_DATA_TYPE", "NODE_COORD_TYPE"}
_SECTION_KEYS = {
    "NODE_COORD_SECTION",
    "EDGE_WEIGHT_SECTION",
    "DISPLAY_DATA_SECTION",
    "TOUR_SECTION",
    "DEMAND_SECTION",
    "DEPOT_SECTION",
    "FIXED_EDGES_SECTION",
}
_WEIGHT_COUNTS = {
    "FULL_MATRIX": lambda n: n * n,
    "LOWER_DIAG_ROW": lambda n: n * (n + 1) // 2,
    "UPPER_ROW": lambda n: n * (n - 1) // 2,
}


@dataclass
class TsplibDocument:
    name: str = ""
    dimension: int = 0
    edge_weight_type: str = ""
    edge_weight_format: str | None = None
    coords: np.ndarray | None = None
    weights: list[float] = field(default_factory=list, repr=False)


def parse_tsplib(text: str) -> TsplibDocument:
    """Parse TSPLIB text into a structured document; raises ParseError with line info."""
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
            body = list(_section_lines(lines, i))
            i += len(body)
            if head == "NODE_COORD_SECTION":
                doc.coords = _read_coords(body)
            elif head == "EDGE_WEIGHT_SECTION":
                doc.weights += _read_weights(body)
            continue
        if key == "NAME":
            doc.name = value
        elif key == "TYPE":
            if value.split()[:1] != ["TSP"]:
                raise UnsupportedType(f"unsupported TYPE {value!r} (only symmetric TSP)")
        elif key == "DIMENSION":
            try:
                doc.dimension = int(value)
            except ValueError:
                raise ParseError(f"bad DIMENSION {value!r}", line=i) from None
        elif key == "EDGE_WEIGHT_TYPE":
            if value not in ("EUC_2D", "GEO", "EXPLICIT"):
                raise UnsupportedType(f"unsupported EDGE_WEIGHT_TYPE {value!r}")
            doc.edge_weight_type = value
        elif key == "EDGE_WEIGHT_FORMAT":
            if value not in _WEIGHT_COUNTS:
                raise UnsupportedType(f"unsupported EDGE_WEIGHT_FORMAT {value!r}")
            doc.edge_weight_format = value
        elif key not in _IGNORED_KEYS:
            warnings.warn(f"ignoring unknown TSPLIB keyword {key!r}", stacklevel=2)

    if doc.dimension <= 0:
        raise ParseError("missing or non-positive DIMENSION")
    if doc.edge_weight_type == "EXPLICIT":
        if len(doc.weights) == 0:
            raise ParseError("EXPLICIT instance without EDGE_WEIGHT_SECTION")
        _check_weight_count(doc)
    elif doc.coords is None:
        raise ParseError("coordinate instance without NODE_COORD_SECTION")
    elif len(doc.coords) != doc.dimension:
        raise ParseError(
            f"DIMENSION {doc.dimension} but {len(doc.coords)} coordinate rows"
        )
    return doc


def _section_lines(lines: list[str], i: int):
    """Yield (index, stripped line) for each data line of the section starting at i."""
    while i < len(lines):
        line = lines[i].strip()
        if not line or line == "EOF" or line.split()[0] in _SECTION_KEYS or ":" in line:
            return
        yield i, line
        i += 1


def _row_floats(k: int, line: str, tokens: list[str], what: str) -> list[float]:
    try:
        return list(map(float, tokens))
    except ValueError:
        raise ParseError(f"bad {what} row {line!r}", line=k + 1) from None


def _read_coords(body: list[tuple[int, str]]) -> np.ndarray:
    """The coordinate rows placed by node number, each of 1..len(body) once, checked row by row."""
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
        placed[number - 1] = _row_floats(k, line, parts[1:], "coordinate")
    return np.array(placed)


def _read_weights(body: list[tuple[int, str]]) -> list[float]:
    return [w for k, line in body for w in _row_floats(k, line, line.split(), "weight")]


def _check_weight_count(doc: TsplibDocument) -> None:
    fmt = doc.edge_weight_format
    if fmt not in _WEIGHT_COUNTS:
        raise UnsupportedType(f"EXPLICIT weights need a supported format, got {fmt!r}")
    want = _WEIGHT_COUNTS[fmt](doc.dimension)
    if len(doc.weights) != want:
        raise ParseError(
            f"EDGE_WEIGHT_SECTION has {len(doc.weights)} entries, expected {want} for {fmt}"
        )


def _geo_radians(coords: np.ndarray) -> np.ndarray:
    # TSPLIB: coordinate DDD.MM means DDD degrees, MM minutes
    deg = np.trunc(coords)
    minutes = coords - deg
    return math.pi * (deg + 5.0 * minutes / 3.0) / 180.0


def euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """Exact pairwise Euclidean distances of (n, 2) float64 points.

    The matrix dominates set-up memory, so it is the only n x n buffer: it
    is filled _ROW_BLOCK rows at a time, with the y terms of each block in
    one small scratch buffer that stays in cache.  Each entry takes the same
    steps as the whole-matrix formula (subtract, square, add, sqrt), so the
    values are identical.  Distances that overflow come out as inf, which
    `TspInstance` rejects, so the overflow is not also warned about here.
    """
    x, y = coords.T
    n = len(x)
    d = np.empty((n, n))
    scratch = np.empty((min(_ROW_BLOCK, n), n))
    with np.errstate(over="ignore"):
        for s in range(0, n, _ROW_BLOCK):
            rows = d[s:s + _ROW_BLOCK]
            dy = scratch[:len(rows)]
            np.subtract(x[s:s + _ROW_BLOCK, None], x, out=rows)
            np.subtract(y[s:s + _ROW_BLOCK, None], y, out=dy)
            rows *= rows
            dy *= dy
            rows += dy
            np.sqrt(rows, out=rows)
    return d


def geo_matrix(coords: np.ndarray) -> np.ndarray:
    """Great-circle distances of (n, 2) DDD.MM latitude, longitude pairs, unrounded.

    Built as `euclidean_matrix` builds its matrix, _ROW_BLOCK rows at a
    time with two scratch blocks, so the matrix is the only n x n buffer.
    Each entry takes the steps of the whole-matrix formula R arccos(clip(1/2
    ((1 + q1) q2 - (1 - q1) q3), -1, 1)), q1 = cos(lon_i - lon_j), q2 =
    cos(lat_i - lat_j), q3 = cos(lat_i + lat_j), so the values are identical.
    """
    lat, lon = _geo_radians(coords[:, 0]), _geo_radians(coords[:, 1])
    n = len(lat)
    d = np.empty((n, n))
    scratch = np.empty((2, min(_ROW_BLOCK, n), n))
    for s in range(0, n, _ROW_BLOCK):
        rows = d[s:s + _ROW_BLOCK]
        q, minus = scratch[:, :len(rows)]
        block_lat, block_lon = lat[s:s + _ROW_BLOCK, None], lon[s:s + _ROW_BLOCK, None]
        np.cos(np.subtract(block_lon, lon, out=rows), out=rows)  # q1
        np.cos(np.subtract(block_lat, lat, out=q), out=q)  # q2
        np.subtract(1.0, rows, out=minus)
        rows += 1.0
        rows *= q
        np.cos(np.add(block_lat, lat, out=q), out=q)  # q3
        minus *= q
        rows -= minus
        rows *= 0.5
        np.clip(rows, -1.0, 1.0, out=rows)
        np.arccos(rows, out=rows)
        rows *= _GEO_RADIUS
    return d


def build_distances(doc: TsplibDocument, rounding: str = "real") -> TspInstance:
    """Realize the document's metric as a full symmetric matrix.

    rounding "real" keeps exact values; "tsplib" applies the standard
    nearest-integer (EUC_2D) / truncation (GEO) conventions.
    """
    if rounding not in ("real", "tsplib"):
        raise ValueError(f"rounding must be 'real' or 'tsplib', got {rounding!r}")
    if doc.edge_weight_type == "EUC_2D":
        d = euclidean_matrix(doc.coords)
        if rounding == "tsplib":
            d += 0.5
            np.floor(d, out=d)
    elif doc.edge_weight_type == "GEO":
        d = geo_matrix(doc.coords)
        if rounding == "tsplib":
            d += 1.0
            np.trunc(d, out=d)
    elif doc.edge_weight_type == "EXPLICIT":
        d = _explicit_matrix(doc)
    else:
        raise UnsupportedType(f"cannot build distances for {doc.edge_weight_type!r}")
    np.fill_diagonal(d, 0.0)
    return TspInstance(matrix=d, coords=doc.coords, name=doc.name or "tsplib")


def _explicit_matrix(doc: TsplibDocument) -> np.ndarray:
    n = doc.dimension
    _check_weight_count(doc)
    vals = np.array(doc.weights, dtype=float)
    if doc.edge_weight_format == "FULL_MATRIX":
        return vals.reshape(n, n)
    return triangle_matrix(vals, n, doc.edge_weight_format)


def triangle_matrix(values: np.ndarray, n: int, fmt: str) -> np.ndarray:
    """The float64 symmetric n x n matrix of a triangle listed row by row.

    "UPPER_ROW" lists columns i+1..n-1 of each row i (`np.triu_indices(n, 1)`
    order), "LOWER_DIAG_ROW" columns 0..i (`np.tril_indices(n)` order).  Each
    row is one slice of `values`; the other triangle is copied _ROW_BLOCK rows
    at a time from the transposed columns, and in a diagonal tile off the
    diagonal only.  So every entry is a listed value, unchanged, and no
    temporary is larger than a tile.
    """
    m = np.zeros((n, n))
    lower = fmt == "LOWER_DIAG_ROW"
    s = 0
    for i in range(n):
        lo, hi = (0, i + 1) if lower else (i + 1, n)
        m[i, lo:hi] = values[s:s + hi - lo]
        s += hi - lo
    u, b = (m.T if lower else m), _ROW_BLOCK  # the listed triangle is the upper one of u
    below = np.tri(b, k=-1, dtype=bool)
    for i in range(0, n, b):
        u[i:i + b, :i] = u[:i, i:i + b].T
        tile = u[i:i + b, i:i + b]
        np.copyto(tile, tile.T, where=below[:len(tile), :len(tile)])
    return m


def load_instance(path: str, rounding: str = "real") -> TspInstance:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is not text
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text, byte {exc.start} is {exc.object[exc.start]:#04x}") from None
    return build_distances(parse_tsplib(text), rounding=rounding)
