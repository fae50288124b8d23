"""Minimal TSPLIB reader for symmetric TSP instances.

Supports EUC_2D, GEO and EXPLICIT edge weights (FULL_MATRIX, LOWER_DIAG_ROW,
UPPER_ROW).  GEO follows the standard great-circle convention: coordinates
are DDD.MM degree-minute pairs and distances use the 6378.388 km earth
radius.  Distances can be built either unrounded ("real") or with the
TSPLIB nearest-integer convention ("tsplib").
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, UnsupportedType
from .problems import TspInstance

_GEO_RADIUS = 6378.388

_HEADER_KEYS = {
    "NAME",
    "TYPE",
    "COMMENT",
    "DIMENSION",
    "EDGE_WEIGHT_TYPE",
    "EDGE_WEIGHT_FORMAT",
    "DISPLAY_DATA_TYPE",
    "NODE_COORD_TYPE",
}
_SECTION_KEYS = {
    "NODE_COORD_SECTION",
    "EDGE_WEIGHT_SECTION",
    "DISPLAY_DATA_SECTION",
    "TOUR_SECTION",
    "DEMAND_SECTION",
    "DEPOT_SECTION",
    "FIXED_EDGES_SECTION",
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
    n_lines = len(lines)

    def header_value(raw: str) -> tuple[str, str]:
        key, _, value = raw.partition(":")
        return key.strip(), value.strip()

    while i < n_lines:
        line = lines[i].strip()
        i += 1
        if not line or line == "EOF":
            continue
        key_fields = header_value(line)[0].split()
        key = key_fields[0] if key_fields else ""
        if key in _SECTION_KEYS:
            if key == "NODE_COORD_SECTION":
                i = _read_coords(doc, lines, i)
            elif key == "EDGE_WEIGHT_SECTION":
                i = _read_weights(doc, lines, i)
            else:
                i += sum(1 for _ in _section_lines(lines, i))
            continue
        key, value = header_value(line)
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
            if value not in ("FULL_MATRIX", "LOWER_DIAG_ROW", "UPPER_ROW"):
                raise UnsupportedType(f"unsupported EDGE_WEIGHT_FORMAT {value!r}")
            doc.edge_weight_format = value
        elif key in _HEADER_KEYS:
            pass
        else:
            warnings.warn(f"ignoring unknown TSPLIB keyword {key!r}", stacklevel=2)

    if doc.dimension <= 0:
        raise ParseError("missing or non-positive DIMENSION")
    if doc.edge_weight_type == "EXPLICIT":
        if len(doc.weights) == 0:
            raise ParseError("EXPLICIT instance without EDGE_WEIGHT_SECTION")
        _expected_weight_count(doc)  # validates payload length
    else:
        if doc.coords is None:
            raise ParseError("coordinate instance without NODE_COORD_SECTION")
        if len(doc.coords) != doc.dimension:
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


def _read_coords(doc: TsplibDocument, lines: list[str], i: int) -> int:
    rows = []
    for k, line in _section_lines(lines, i):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'index x y', got {line!r}", line=k + 1)
        try:
            rows.append((float(parts[1]), float(parts[2])))
        except ValueError:
            raise ParseError(f"bad coordinate row {line!r}", line=k + 1) from None
    doc.coords = np.array(rows)
    return i + len(rows)


def _read_weights(doc: TsplibDocument, lines: list[str], i: int) -> int:
    n_lines = 0
    for n_lines, (k, line) in enumerate(_section_lines(lines, i), 1):
        try:
            doc.weights.extend(float(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"bad weight row {line!r}", line=k + 1) from None
    return i + n_lines


def _expected_weight_count(doc: TsplibDocument) -> int:
    n = doc.dimension
    fmt = doc.edge_weight_format
    if fmt == "FULL_MATRIX":
        want = n * n
    elif fmt == "LOWER_DIAG_ROW":
        want = n * (n + 1) // 2
    elif fmt == "UPPER_ROW":
        want = n * (n - 1) // 2
    else:
        raise UnsupportedType(f"EXPLICIT weights need a supported format, got {fmt!r}")
    if len(doc.weights) != want:
        raise ParseError(
            f"EDGE_WEIGHT_SECTION has {len(doc.weights)} entries, expected {want} for {fmt}"
        )
    return want


def _geo_radians(coords: np.ndarray) -> np.ndarray:
    # TSPLIB: coordinate DDD.MM means DDD degrees, MM minutes
    deg = np.trunc(coords)
    minutes = coords - deg
    return math.pi * (deg + 5.0 * minutes / 3.0) / 180.0


def euclidean_matrix(coords: np.ndarray) -> np.ndarray:
    """Exact pairwise Euclidean distances of (n, 2) points.

    Built in place with one n x n buffer per axis, since the matrix dominates
    set-up memory.  Distances that overflow come out as inf, which
    `TspInstance` rejects, so the overflow is not also warned about here.
    """
    x, y = coords.T
    with np.errstate(over="ignore"):
        d, dy = x[:, None] - x, y[:, None] - y
        d *= d
        dy *= dy
        d += dy
    return np.sqrt(d, out=d)


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
            d = np.floor(d + 0.5)
    elif doc.edge_weight_type == "GEO":
        lat = _geo_radians(doc.coords[:, 0])
        lon = _geo_radians(doc.coords[:, 1])
        q1 = np.cos(lon[:, None] - lon[None, :])
        q2 = np.cos(lat[:, None] - lat[None, :])
        q3 = np.cos(lat[:, None] + lat[None, :])
        arg = np.clip(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3), -1.0, 1.0)
        d = _GEO_RADIUS * np.arccos(arg)
        if rounding == "tsplib":
            d = np.trunc(d + 1.0)
    elif doc.edge_weight_type == "EXPLICIT":
        d = _explicit_matrix(doc)
    else:
        raise UnsupportedType(f"cannot build distances for {doc.edge_weight_type!r}")
    np.fill_diagonal(d, 0.0)
    return TspInstance(matrix=d, coords=doc.coords, name=doc.name or "tsplib")


def _explicit_matrix(doc: TsplibDocument) -> np.ndarray:
    n = doc.dimension
    _expected_weight_count(doc)
    vals = np.array(doc.weights, dtype=float)
    if doc.edge_weight_format == "FULL_MATRIX":
        return vals.reshape(n, n)
    if doc.edge_weight_format == "LOWER_DIAG_ROW":
        i, j = np.tril_indices(n)  # row-major: row i lists columns 0..i
    else:  # UPPER_ROW: row i lists columns i+1..n-1
        i, j = np.triu_indices(n, k=1)
    d = np.zeros((n, n))
    d[i, j] = d[j, i] = vals
    return d


def load_instance(path: str, rounding: str = "real") -> TspInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return build_distances(parse_tsplib(fh.read()), rounding=rounding)
