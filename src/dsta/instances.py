"""Seeded random instance generators and instance conversions."""

from __future__ import annotations

import numpy as np

from .errors import DomainViolation, DstaError
from .problems import DvsProblem, MaxCutInstance, TspInstance
from .tsplib import euclidean_matrix, triangle_matrix


class InvalidSize(DstaError):
    pass


def _generator(seed: int) -> np.random.Generator:
    if seed < 0:
        raise InvalidSize(f"instance seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def maxcut_from_tsp(inst: TspInstance) -> MaxCutInstance:
    """Reuse a TSP distance matrix as MAX-CUT edge weights."""
    return MaxCutInstance(weights=inst.matrix.copy(), name=f"{inst.name}-maxcut")


def random_euclidean_tsp(n: int, seed: int) -> TspInstance:
    """n uniform points on the unit square with exact Euclidean distances."""
    if n < 3:
        raise InvalidSize(f"need n >= 3 cities, got {n}")
    rng = _generator(seed)
    coords = rng.random((n, 2))
    return TspInstance(matrix=euclidean_matrix(coords), coords=coords, name=f"rand-euc-{n}-s{seed}")


def random_weighted_graph(n_vertices: int, density: float, seed: int) -> MaxCutInstance:
    """Random graph with edge probability `density` and uniform [0,1) weights.

    The seed fixes the graph through the order of its draws: first m = n(n-1)/2
    presence draws, then m weights, each pair (i, j), i < j, taking its place
    in `np.triu_indices(n, 1)` order.
    """
    if n_vertices < 2:
        raise InvalidSize(f"need >= 2 vertices, got {n_vertices}")
    if not 0.0 <= density <= 1.0:
        raise InvalidSize(f"density must be in [0,1], got {density}")
    rng = _generator(seed)
    m = n_vertices * (n_vertices - 1) // 2
    present = rng.random(m) < density
    values = rng.random(m) * present
    w = triangle_matrix(values, n_vertices, "UPPER_ROW")
    return MaxCutInstance(weights=w, name=f"rand-graph-{n_vertices}-s{seed}")


def random_dvs(n: int, m: int, seed: int) -> DvsProblem:
    """Random separable objective over a random alphabet of m distinct reals.

    Cost is a per-(position, value) lookup table, so the optimum is the
    column-wise minimum and brute force is easy to verify against.
    """
    if n < 2 or m < 2:
        raise InvalidSize(f"need n >= 2 and m >= 2, got n={n}, m={m}")
    rng = _generator(seed)
    alphabet = np.sort(rng.choice(np.linspace(-10, 10, 10 * m), size=m, replace=False))
    table = rng.random((n, m))

    def objective(x: np.ndarray) -> np.ndarray:
        cols = np.searchsorted(alphabet, x)  # the column of each value in the sorted alphabet
        if not (alphabet[np.minimum(cols, m - 1)] == x).all():
            raise DomainViolation("value outside the alphabet")
        return table[np.arange(n), cols].sum(axis=1)

    return DvsProblem(alphabet=alphabet, dimension=n, objective=objective, name=f"rand-dvs-{n}x{m}-s{seed}")
