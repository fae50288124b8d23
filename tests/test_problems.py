import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_moves import halves_sum
from test_tsplib import traced_peak

from dsta import instances
from dsta.errors import DimensionMismatch, DomainViolation
from dsta.problems import (
    _TILE,
    ROSENBROCK_ALPHABET,
    DvsProblem,
    MaxCutInstance,
    TspInstance,
    cut_from_qubo,
    cut_weight,
    dvs_decode,
    dvs_problem,
    maxcut_problem,
    qubo_value,
    rosenbrock_problem,
    rosenbrock_value,
    tour_length,
    tour_lengths,
    tsp_error,
    tsp_problem,
)


def triangle():
    return TspInstance(matrix=np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]]))


def unit_square():
    coords = np.array([[0.0, 0], [0, 1], [1, 1], [1, 0]])
    diff = coords[:, None, :] - coords[None, :, :]
    return TspInstance(matrix=np.sqrt((diff**2).sum(-1)), coords=coords)


class TestTourLength:
    def test_triangle(self):
        assert tour_length(np.array([0, 1, 2]), triangle()) == 6

    def test_square_perimeter(self):
        assert tour_length(np.array([0, 1, 2, 3]), unit_square()) == pytest.approx(4)

    def test_rotation_and_reversal_invariance(self):
        g = np.random.default_rng(0)
        m = g.random((9, 9))
        m = m + m.T
        np.fill_diagonal(m, 0)
        inst = TspInstance(matrix=m)
        tour = g.permutation(9)
        base = tour_length(tour, inst)
        for r in range(9):
            assert tour_length(np.roll(tour, r), inst) == pytest.approx(base)
        assert tour_length(tour[::-1].copy(), inst) == pytest.approx(base)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            tour_length(np.arange(4), triangle())

    def test_matrix_validation(self):
        with pytest.raises(DimensionMismatch):
            TspInstance(matrix=np.array([[0.0, 1], [2, 0], [1, 1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = triangle().matrix.copy()
        m[0, 1] = m[1, 0] = bad  # symmetric, so only the entry itself is wrong
        with pytest.raises(DimensionMismatch, match="finite"):
            TspInstance(matrix=m)


class TestCutAndQubo:
    def test_empty_cut(self):
        inst = MaxCutInstance(weights=np.array([[0.0, 5], [5, 0]]))
        assert cut_weight(np.array([1, 1]), inst) == 0
        assert cut_weight(np.array([0, 0]), inst) == 0

    def test_two_vertices(self):
        inst = MaxCutInstance(weights=np.array([[0.0, 5], [5, 0]]))
        assert cut_weight(np.array([1, 0]), inst) == 5

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DimensionMismatch, match="finite"):
            MaxCutInstance(weights=np.array([[0.0, bad, 1], [bad, 0, 1], [1, 1, 0]]))

    @pytest.mark.filterwarnings("error")
    def test_nan_reported_even_where_the_sum_overflows(self):
        # 2 * sum |w| of the finite entries alone is past float64's range
        w = np.full((3, 3), 1.4e308)
        np.fill_diagonal(w, 0)
        w[0, 2] = w[2, 0] = np.nan
        with pytest.raises(DimensionMismatch) as exc:
            MaxCutInstance(weights=w)
        assert str(exc.value) == CUT_FINITE

    @pytest.mark.filterwarnings("error")
    def test_rejects_weights_whose_qubo_form_overflows(self):
        # the bound is 2 * sum|w|: just inside it every QUBO and cut sum stays finite
        w = np.full((3, 3), 1.4e307)
        np.fill_diagonal(w, 0)
        inst = MaxCutInstance(weights=w)
        bits = np.array(list(itertools.product([0, 1], repeat=2)))
        assert np.isfinite(maxcut_problem(inst).evaluate_many(bits)).all()
        assert all(np.isfinite(cut_weight(np.append(x, 1), inst)) for x in bits)
        with pytest.raises(DimensionMismatch, match="overflows"):
            MaxCutInstance(weights=2 * w)

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_bits_outside_zero_one_rejected(self, bad):
        # bit -1 used to read as sign +1, and bit 2 raised a bare IndexError
        inst = MaxCutInstance(weights=np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]]))
        q, c = inst.qubo
        with pytest.raises(DomainViolation, match="0 or 1"):
            cut_weight(np.array([bad, 0, 1]), inst)
        with pytest.raises(DomainViolation, match="0 or 1"):
            qubo_value(np.array([bad, 0]), q, c)

    def test_qubo_zero(self):
        q = np.zeros((3, 3))
        c = np.zeros(3)
        for bits in itertools.product([0, 1], repeat=3):
            assert qubo_value(np.array(bits), q, c) == 0

    def test_qubo_linear_term(self):
        q = np.zeros((1, 1))
        c = np.array([3.0])
        assert qubo_value(np.array([1]), q, c) == -3
        assert qubo_value(np.array([0]), q, c) == 3

    def test_qubo_construction_by_inspection(self):
        w = np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]])
        q, c = MaxCutInstance(weights=w).qubo
        assert np.array_equal(q, [[0, 1], [1, 0]])
        assert np.array_equal(c, [-2, -3])

    def test_reduction_consistency_enumerated(self):
        # argmin of the QUBO form == argmax cut weight with the last vertex fixed
        g = np.random.default_rng(1)
        w = g.random((10, 10))
        w = w + w.T
        np.fill_diagonal(w, 0)
        inst = MaxCutInstance(weights=w)
        q, c = inst.qubo
        pvals, cuts = [], []
        for bits in itertools.product([0, 1], repeat=inst.n):
            x = np.array(bits)
            pvals.append(qubo_value(x, q, c))
            cuts.append(cut_weight(np.append(x, 1), inst))
        pvals, cuts = np.array(pvals), np.array(cuts)
        # same affine relationship everywhere, hence identical rank order
        assert np.allclose(cuts, cut_from_qubo(pvals, inst))
        assert np.array_equal(np.argsort(pvals, kind="stable"), np.argsort(-cuts, kind="stable"))

    def test_cut_from_minimized_value_with_self_loops(self):
        # self-loops used to offset every recovered cut by tr W / 4
        g = np.random.default_rng(0)
        w = g.random((6, 6))
        inst = MaxCutInstance(weights=w + w.T)
        bits = np.array(list(itertools.product([0, 1], repeat=inst.n)))
        cuts = cut_from_qubo(maxcut_problem(inst).evaluate_many(bits), inst)
        ref = [cut_weight(np.append(x, 1), inst) for x in bits]
        np.testing.assert_allclose(cuts, ref, rtol=0, atol=1e-12)


# a third, partial tile row and column, wider than one entry
CHECK_N = 2 * _TILE + 5
TSP_FINITE = "distance matrix entries must be finite"
TSP_SHAPE = "distance matrix must be symmetric, nonnegative, zero diagonal"
CUT_FINITE = "weight matrix entries must be finite"
CUT_SYMMETRIC = "weight matrix must be symmetric"
CUT_TOO_LARGE = "weight matrix too large: its QUBO form overflows"


def check_matrix(n=CHECK_N):
    g = np.random.default_rng(5)
    m = g.random((n, n))
    m += m.T
    np.fill_diagonal(m, 0)
    return m


def tile_pair_cells():
    """One cell in each tile pair (i, j), j >= i, off the diagonal; the last pair is the partial one."""
    starts = range(0, CHECK_N, _TILE)
    return [(i + 3, j + 1) for i in starts for j in starts if j >= i]


LAST = CHECK_N - 1  # row and column of the last partial tile
# (cells, value written to each) -> (TspInstance message, MaxCutInstance message), None where accepted
MATRIX_CHECK_CASES = {
    "symmetric": ([], 0.0, None, None),
    **{
        f"{name}-in-last-tile-lower-triangle": ([(LAST, LAST - 2)], bad, TSP_FINITE, CUT_FINITE)
        for name, bad in [("nan", np.nan), ("inf", np.inf), ("minus-inf", -np.inf)]
    },
    "one-negative-entry": ([(LAST, LAST - 2)], -1.0, TSP_SHAPE, CUT_SYMMETRIC),
    "negative-pair": ([(LAST, LAST - 2), (LAST - 2, LAST)], -1.0, TSP_SHAPE, None),
    # entries of check_matrix() lie in [0, 2], so 5.0 is beyond allclose
    **{
        f"asymmetric-at-{r}-{c}": ([(r, c)], 5.0, TSP_SHAPE, CUT_SYMMETRIC)
        for cell in tile_pair_cells()
        for r, c in (cell, cell[::-1])
    },
}


def matrix_outcome(make, m):
    try:
        make(m)
    except DimensionMismatch as exc:
        return str(exc)
    return None


class TestMatrixChecks:
    """The checks read the matrix in tiles; they accept and reject as whole-matrix checks would."""

    @pytest.mark.parametrize("case", MATRIX_CHECK_CASES)
    def test_same_outcome_in_every_tile(self, case):
        cells, value, tsp_message, cut_message = MATRIX_CHECK_CASES[case]
        m = check_matrix()
        for r, c in cells:
            m[r, c] = value
        assert matrix_outcome(lambda x: TspInstance(matrix=x), m) == tsp_message
        assert matrix_outcome(lambda x: MaxCutInstance(weights=x), m) == cut_message

    def test_allclose_only_matrix_is_held_as_its_halves_sum(self):
        m = check_matrix()
        m += 1e-12 * np.random.default_rng(6).random(m.shape)
        assert not (m == m.T).all()
        want = 0.5 * m + 0.5 * m.T
        assert TspInstance(matrix=m).matrix.tobytes() == want.tobytes()
        assert MaxCutInstance(weights=m).weights.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_integer_matrices_accepted(self, dtype):
        m = np.rint(100 * check_matrix()).astype(dtype)
        assert TspInstance(matrix=m).matrix is m
        assert MaxCutInstance(weights=m).weights is m
        m[LAST, 0] += 1
        assert matrix_outcome(lambda x: TspInstance(matrix=x), m) == TSP_SHAPE


def allclose_only(m, value, bumped):
    """`m` with entry (0, -1) set to `value` and entry (-1, 0) to `bumped`, a value allclose to it but not equal."""
    m[0, -1], m[-1, 0] = value, bumped
    return m


class TestHalvesSum:
    """A matrix symmetric only to allclose is held as 0.5 m + 0.5 m^T, on both instance types."""

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_maximum_stay_finite(self):
        m = allclose_only(check_matrix(), 1.7e308, 1.7e308 * (1 + 1e-12))
        with np.errstate(over="ignore"):
            assert not np.isfinite((m + m.T) / 2).all()  # the plain mean overflows
        held = TspInstance(matrix=m).matrix
        assert np.isfinite(held).all() and (held == held.T).all()
        assert held.tobytes() == halves_sum(m).tobytes()
        # 2 * sum |W| overflows for such weights, so MAX-CUT rejects them; it loads the largest it can bound
        assert matrix_outcome(lambda x: MaxCutInstance(weights=x), m) == CUT_TOO_LARGE
        w = allclose_only(np.zeros((3, 3)), 4e307, 4e307 * (1 + 1e-12))
        inst = MaxCutInstance(weights=w)
        assert np.isfinite(inst.weights).all() and (inst.weights == inst.weights.T).all()
        assert inst.weights.tobytes() == halves_sum(w).tobytes() and np.isfinite(inst.abs_bound)

    def test_integer_matrix_loads_exactly_symmetric(self):
        m = allclose_only(np.rint(100 * check_matrix()).astype(np.int64), 10**9, 10**9 + 1)
        for held in (TspInstance(matrix=m).matrix, MaxCutInstance(weights=m).weights):
            assert held.dtype == np.float64 and (held == held.T).all()
            assert held.tobytes() == halves_sum(m).tobytes()

    def test_float32_stays_float32(self):
        one = np.float32(1.5)
        m = allclose_only(check_matrix().astype(np.float32), one, np.nextafter(one, np.float32(2)))
        tsp = TspInstance(matrix=m)
        for held in (tsp.matrix, MaxCutInstance(weights=m).weights):
            assert held.dtype == np.float32 and (held == held.T).all()
            assert held.tobytes() == halves_sum(m).tobytes()
        assert tsp.eps == float(np.finfo(np.float32).eps)

    def test_nan_raises_the_finiteness_message(self):
        m = allclose_only(check_matrix(), 1.0, 1.0 + 1e-12)
        m[LAST, LAST - 2] = np.nan
        assert matrix_outcome(lambda x: TspInstance(matrix=x), m) == TSP_FINITE
        assert matrix_outcome(lambda x: MaxCutInstance(weights=x), m) == CUT_FINITE

    def test_abs_bound_is_the_sum_of_the_held_weights(self):
        w = allclose_only(np.zeros((3, 3)), 1e-9, -1e-9)  # within allclose's absolute tolerance; halves sum to 0
        inst = MaxCutInstance(weights=w)
        assert not inst.weights.any() and inst.abs_bound == 0.0 < 2 * np.abs(w).sum()


class TestMaxCutSetupMemory:
    """The weight checks make no n x n temporary, and abs_bound is the whole-matrix sum."""

    N = 1000

    def test_instance_check_allocates_little(self):
        # exactly symmetric, so no allclose pass: at most 5% of the matrix bytes
        m = check_matrix(self.N)
        inst, peak = traced_peak(lambda: MaxCutInstance(weights=m))
        assert inst.weights is m
        assert peak <= 0.05 * m.nbytes

    @pytest.mark.parametrize("n", [2, 3, 181, 182, 401, 1000])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_abs_bound_is_the_whole_matrix_sum(self, n, layout):
        g = np.random.default_rng(n)
        a = (g.random((2 * n, 2 * n)) - 0.5) * 10.0 ** g.integers(-3, 4, size=(2 * n, 2 * n))
        w = a[:n, :n] + a[:n, :n].T
        if layout == "F":
            w = np.asfortranarray(w)
        elif layout == "strided":
            w = (a + a.T)[::2, ::2]
        assert MaxCutInstance(weights=w).abs_bound == float(2 * np.abs(w).sum())


class TestRosenbrock:
    def test_global_minimum(self):
        assert rosenbrock_value(np.ones(5, dtype=int)) == 0

    def test_all_zeros(self):
        assert rosenbrock_value(np.zeros(5, dtype=int)) == 4

    def test_direct_substitution(self):
        assert rosenbrock_value(np.array([2, 2])) == 401

    def test_domain_check(self):
        with pytest.raises(DomainViolation):
            rosenbrock_value(np.array([3, 0]))

    def test_floor_exhaustive_n4(self):
        # nonnegative everywhere, zero only at the all-ones point
        for combo in itertools.product(range(-2, 3), repeat=4):
            v = rosenbrock_value(np.array(combo))
            assert v >= 0
            assert (v == 0) == (combo == (1, 1, 1, 1))

    def test_all_zeros_is_single_flip_local_minimum(self):
        base = np.zeros(7, dtype=int)
        f0 = rosenbrock_value(base)
        for i in range(7):
            for v in (-2, -1, 1, 2):
                x = base.copy()
                x[i] = v
                assert rosenbrock_value(x) > f0


class TestDvsDecode:
    def test_lookup(self):
        u = np.array([10.0, 20.0, 30.0])
        assert np.array_equal(dvs_decode(np.array([0, 2, 1]), u), [10.0, 30.0, 20.0])

    def test_constant(self):
        u = np.array([7.0, 9.0])
        assert np.array_equal(dvs_decode(np.zeros(4, dtype=int), u), np.full(4, 7.0))

    def test_injective_iff_distinct(self):
        u = np.array([1.0, 2.0, 3.0])
        images = {
            tuple(dvs_decode(np.array(c), u)) for c in itertools.product(range(3), repeat=3)
        }
        assert len(images) == 27

    def test_range_check(self):
        for bad in (np.array([0, 3]), np.array([0, -1], dtype=np.int64), np.array([0, -1], dtype=np.int8)):
            with pytest.raises(DomainViolation, match="index outside alphabet range"):
                dvs_decode(bad, np.array([1.0, 2.0, 3.0]))


class TestErrors:
    def test_tsp_error_reference_values(self):
        assert tsp_error(525.0124, 512.3094) == pytest.approx(2.48, abs=0.005)
        assert tsp_error(1.6418e3, 1.6665e3) == pytest.approx(-1.48, abs=0.005)
        assert tsp_error(7.5, 7.5) == 0

    def test_zero_reference_guarded(self):
        with pytest.raises(ZeroDivisionError):
            tsp_error(1.0, 0.0)


class TestAdapters:
    """Each adapter's evaluate_many agrees row by row with the reference formula."""

    def test_tsp_problem_batches_match_scalar(self):
        inst = unit_square()
        prob = tsp_problem(inst)
        g = np.random.default_rng(0)
        tours = np.stack([g.permutation(4) for _ in range(20)])
        batch = prob.evaluate_many(tours)
        assert batch.shape == (20,)
        for row, cost in zip(tours, batch):
            assert tour_length(row, inst) == pytest.approx(cost)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 60),
        layout=st.sampled_from(["C", "F", "transposed"]),
        dtype=st.sampled_from([np.int32, np.int64]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=200, layout="C", dtype=np.int16, seed=0)  # 199 * 200 exceeds int16
    def test_tour_lengths_equal_two_index_gather(self, n, layout, dtype, seed):
        g = np.random.default_rng(seed)
        m = g.random((n, n))
        m = m + m.T + 1e-12 * g.random((n, n))  # symmetric only to allclose: the instance holds its halves' sum
        np.fill_diagonal(m, 0)
        matrix = {"C": m, "F": np.asfortranarray(m), "transposed": m.T}[layout]
        tours = np.stack([g.permutation(n) for _ in range(17)]).astype(dtype)
        ref = (0.5 * matrix + 0.5 * matrix.T)[tours, np.roll(tours, -1, 1)].sum(1)
        assert np.array_equal(tour_lengths(tours, TspInstance(matrix=matrix)), ref)

    def test_maxcut_problem_minimizes_negated_cut(self):
        g = np.random.default_rng(2)
        w = g.random((6, 6))
        w = w + w.T
        np.fill_diagonal(w, 0)
        inst = MaxCutInstance(weights=w)
        q, c = inst.qubo
        bits = np.array(list(itertools.product([0, 1], repeat=5)))
        batch = maxcut_problem(inst).evaluate_many(bits)
        for x, p in zip(bits, batch):
            assert qubo_value(x, q, c) == pytest.approx(p)
            assert cut_from_qubo(p, inst) == pytest.approx(cut_weight(np.append(x, 1), inst))

    @settings(max_examples=60, deadline=None)
    @given(
        vertices=st.integers(2, 40),
        density=st.floats(0.0, 1.0),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(vertices=2, density=1.0, scale=1.0, seed=0)  # n = 1
    @example(vertices=12, density=0.0, scale=1.0, seed=0)
    def test_maxcut_batch_rows_match_qubo_value(self, vertices, density, scale, seed):
        graph = instances.random_weighted_graph(vertices, density, seed)
        inst = MaxCutInstance(weights=graph.weights * scale)
        q, c = inst.qubo
        bits = np.random.default_rng(seed).integers(0, 2, size=(37, inst.n))
        batch = maxcut_problem(inst).evaluate_many(bits)
        ref = np.array([qubo_value(x, q, c) for x in bits])
        # relative to the summed term magnitudes: P itself may cancel to ~0
        np.testing.assert_allclose(batch, ref, rtol=1e-9, atol=1e-9 * np.abs(inst.weights).sum())

    def test_rosenbrock_problem_batch(self):
        prob = rosenbrock_problem(6)
        g = np.random.default_rng(3)
        states = g.integers(0, 5, size=(30, 6))
        batch = prob.evaluate_many(states)
        for row, cost in zip(states, batch):
            assert rosenbrock_value(dvs_decode(row, ROSENBROCK_ALPHABET)) == pytest.approx(cost)

    @pytest.mark.parametrize("row", [[5, 5, 5], [-1, 3, 3], [0, 1, 7]])
    def test_rosenbrock_problem_rejects_indices_outside_alphabet(self, row):
        # 5 is the pair table's sentinel, whose pairs are 0, and -1 would wrap onto it
        prob = rosenbrock_problem(3)
        with pytest.raises(DomainViolation, match="outside alphabet"):
            prob.evaluate_many(np.array([[1, 1, 1], row]))
        with pytest.raises(DomainViolation, match="outside alphabet"):
            prob.evaluate(np.array(row))

    def test_initial_states_valid(self):
        g = np.random.default_rng(4)
        perm = tsp_problem(unit_square()).initial(g)
        assert sorted(perm) == list(range(4))
        vals = rosenbrock_problem(5).initial(g)
        assert vals.shape == (5,) and vals.min() >= 0 and vals.max() < 5

    def test_dvs_adapter(self):
        spec = DvsProblem(
            alphabet=np.array([0.0, 1.0, 4.0]),
            dimension=3,
            objective=lambda x: (x**2).sum(axis=1),
        )
        prob = dvs_problem(spec)
        assert np.array_equal(prob.evaluate_many(np.array([[0, 0, 0], [2, 1, 0]])), [0, 17])
        assert prob.evaluate(np.array([2, 1, 0])) == 17

    @pytest.mark.parametrize(
        "objective",
        [lambda x: float(x.sum()), lambda x: x.sum(axis=1, keepdims=True), lambda x: x.sum(axis=0)],
        ids=["scalar", "column", "per-position"],
    )
    def test_dvs_objective_must_return_one_cost_per_row(self, objective):
        spec = DvsProblem(alphabet=np.array([0.0, 1.0]), dimension=3, objective=objective)
        with pytest.raises(DimensionMismatch, match="shape"):
            dvs_problem(spec).evaluate_many(np.array([[0, 1, 1], [1, 0, 0]]))

    def test_dvs_adapter_keeps_range_check(self):
        spec = DvsProblem(alphabet=np.array([0.0, 1.0]), dimension=2, objective=lambda x: x.sum(axis=1))
        with pytest.raises(DomainViolation):
            dvs_problem(spec).evaluate_many(np.array([[0, 2]]))
