import numpy as np
import pytest

from dsta import instances
from dsta.errors import DomainViolation
from dsta.instances import InvalidSize


class TestRandomEuclideanTsp:
    def test_shape_and_metric_properties(self):
        inst = instances.random_euclidean_tsp(12, seed=0)
        m = inst.matrix
        assert m.shape == (12, 12)
        assert inst.coords.shape == (12, 2)
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 0)
        assert (m >= 0).all()

    def test_distances_match_coords(self):
        inst = instances.random_euclidean_tsp(6, seed=1)
        i, j = 2, 4
        assert inst.matrix[i, j] == pytest.approx(
            np.linalg.norm(inst.coords[i] - inst.coords[j])
        )

    @pytest.mark.parametrize("n", [3, 7, 100, 501])
    def test_matrix_equals_coordinate_formula(self, n):
        inst = instances.random_euclidean_tsp(n, seed=n)
        c = inst.coords
        diff = c[:, None, :] - c[None, :, :]
        assert np.array_equal(inst.matrix, np.sqrt((diff**2).sum(axis=-1)))

    def test_seed_determinism(self):
        a = instances.random_euclidean_tsp(8, seed=5)
        b = instances.random_euclidean_tsp(8, seed=5)
        c = instances.random_euclidean_tsp(8, seed=6)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_too_small(self):
        with pytest.raises(InvalidSize):
            instances.random_euclidean_tsp(2, seed=0)


class TestRandomWeightedGraph:
    def test_dense_graph(self):
        g = instances.random_weighted_graph(10, density=1.0, seed=0)
        w = g.weights
        off = w[~np.eye(10, dtype=bool)]
        assert (off > 0).all()
        assert np.allclose(w, w.T)
        assert np.allclose(np.diag(w), 0)

    def test_empty_graph(self):
        g = instances.random_weighted_graph(6, density=0.0, seed=0)
        assert not g.weights.any()

    def test_density_scales_edge_count(self):
        sparse = instances.random_weighted_graph(40, density=0.2, seed=3)
        dense = instances.random_weighted_graph(40, density=0.8, seed=3)
        assert (sparse.weights > 0).sum() < (dense.weights > 0).sum()

    def test_seed_determinism(self):
        a = instances.random_weighted_graph(7, density=0.5, seed=9)
        b = instances.random_weighted_graph(7, density=0.5, seed=9)
        assert np.array_equal(a.weights, b.weights)

    def test_validation(self):
        with pytest.raises(InvalidSize):
            instances.random_weighted_graph(1, density=0.5, seed=0)
        with pytest.raises(InvalidSize):
            instances.random_weighted_graph(5, density=1.5, seed=0)


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: instances.random_euclidean_tsp(5, seed),
        lambda seed: instances.random_weighted_graph(5, 0.5, seed),
        lambda seed: instances.random_dvs(3, 3, seed),
    ],
    ids=["tsp", "graph", "dvs"],
)
def test_negative_seed_rejected(make):
    with pytest.raises(InvalidSize, match="seed must be >= 0"):
        make(-1)
    make(0)


class TestMaxcutFromTsp:
    def test_reuses_distance_matrix(self):
        tsp = instances.random_euclidean_tsp(6, seed=2)
        cut = instances.maxcut_from_tsp(tsp)
        assert np.array_equal(cut.weights, tsp.matrix)
        assert cut.weights is not tsp.matrix
        assert cut.name.endswith("-maxcut")
        assert cut.n == 5  # one vertex fixed by the reduction


class TestRandomDvs:
    def test_alphabet_distinct_and_sorted(self):
        spec = instances.random_dvs(5, 6, seed=0)
        a = spec.alphabet
        assert len(set(a.tolist())) == 6
        assert (np.diff(a) > 0).all()

    def test_objective_is_separable(self):
        spec = instances.random_dvs(4, 3, seed=1)
        # changing one coordinate changes the cost independently of the others
        x = spec.alphabet[np.zeros((1, 4), dtype=int)]
        y = x.copy()
        y[0, 2] = spec.alphabet[1]
        delta = spec.objective(y) - spec.objective(x)
        z = spec.alphabet[np.array([[2, 1, 0, 2]])]
        w = z.copy()
        w[0, 2] = spec.alphabet[1]
        assert spec.objective(w) - spec.objective(z) == pytest.approx(delta)

    def test_seed_determinism(self):
        a = instances.random_dvs(4, 3, seed=7)
        b = instances.random_dvs(4, 3, seed=7)
        assert np.array_equal(a.alphabet, b.alphabet)
        x = a.alphabet[np.array([[0, 2, 1, 0], [1, 1, 2, 0]])]
        assert np.array_equal(a.objective(x), b.objective(x))

    def test_batch_rows_equal_single_rows(self):
        spec = instances.random_dvs(6, 4, seed=3)
        x = spec.alphabet[np.random.default_rng(0).integers(0, 4, size=(50, 6))]
        assert spec.objective(x).tolist() == [spec.objective(row[None])[0] for row in x]

    @pytest.mark.parametrize("where", ["between", "below", "above", "nan"])
    def test_value_outside_alphabet(self, where):
        spec = instances.random_dvs(3, 4, seed=2)
        a = spec.alphabet
        bad = {"between": (a[0] + a[1]) / 2, "below": a[0] - 1, "above": a[-1] + 1, "nan": np.nan}
        x = a[np.array([[0, 1, 2], [3, 2, 1]])]
        x[1, 1] = bad[where]
        with pytest.raises(DomainViolation):
            spec.objective(x)

    def test_validation(self):
        with pytest.raises(InvalidSize):
            instances.random_dvs(1, 3, seed=0)
        with pytest.raises(InvalidSize):
            instances.random_dvs(4, 1, seed=0)
