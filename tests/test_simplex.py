import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lgeo
from lgeo import generators as G
from lgeo.simplex import (
    CostValue,
    PrimalCoord,
    SimplexPoint,
    coord_rows,
    cost,
    from_primal,
    point_rows,
    psi,
    row_max,
    row_sum,
    to_primal,
    to_primal_many,
)
from lgeo import simplex as S

from _oracles import fd_hessian


def coord_strategy(dim=3, bound=20.0):
    return st.lists(
        st.floats(-bound, bound, allow_nan=False), min_size=dim, max_size=dim
    )


class TestSimplexPoint:
    def test_renormalizes_small_deviation(self):
        p = SimplexPoint([0.5, 0.25, 0.25 + 5e-10])
        assert abs(p.p.sum() - 1.0) < 1e-15

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError):
            SimplexPoint([0.5, 0.25, 0.249])

    def test_rejects_boundary_entries(self):
        with pytest.raises(ValueError):
            SimplexPoint([1.0, 0.0])
        with pytest.raises(ValueError):
            SimplexPoint([1.0, 1e-301])

    def test_rejects_scalar_and_short(self):
        with pytest.raises(ValueError):
            SimplexPoint([1.0])

    def test_immutable(self):
        p = SimplexPoint([0.5, 0.5])
        with pytest.raises(ValueError):
            p.p[0] = 0.3


class TestPrimalMaps:
    def test_half_quarter_quarter(self):
        th = to_primal(SimplexPoint([0.5, 0.25, 0.25])).theta
        assert np.allclose(th, [np.log(2), 0.0], atol=1e-15)

    def test_barycenter_maps_to_origin(self):
        th = to_primal(SimplexPoint([1 / 3, 1 / 3, 1 / 3])).theta
        assert np.allclose(th, 0.0, atol=1e-15)

    def test_hand_log_ratios(self):
        th = to_primal(SimplexPoint([0.7, 0.2, 0.1])).theta
        assert np.allclose(th, [np.log(7), np.log(2)], atol=1e-14)

    def test_origin_maps_to_barycenter(self):
        p = from_primal([0.0, 0.0])
        assert np.allclose(p.p, 1 / 3, atol=1e-15)

    def test_inverse_of_half_quarter_quarter(self):
        p = from_primal([np.log(2), 0.0])
        assert np.allclose(p.p, [0.5, 0.25, 0.25], atol=1e-15)

    def test_large_coordinate_no_overflow(self):
        p = from_primal([100.0, 0.0])
        assert np.all(np.isfinite(p.p))
        assert p.p[0] == pytest.approx(1.0, abs=1e-40)
        # log-sum-exp oracle: p_1 = exp(100 - psi), psi computed by shift
        psi_ref = 100.0 + np.log(1 + 2 * np.exp(-100.0))
        assert p.p[0] == pytest.approx(np.exp(100.0 - psi_ref), rel=1e-12)

    def test_round_trip_random_small_entries(self, rng):
        # entries spread down to 1e-8
        logs = rng.uniform(np.log(1e-8), 0.0, size=(10_000, 4))
        P = np.exp(logs)
        P /= P.sum(axis=1, keepdims=True)
        for row in P[:200]:
            th = to_primal(SimplexPoint(row)).theta
            back = from_primal(th).p
            assert np.max(np.abs(back - row)) < 1e-10
            again = to_primal(back).theta
            assert np.max(np.abs(again - th)) < 1e-10


class TestPsi:
    def test_origin_value(self):
        assert psi([0.0, 0.0]) == pytest.approx(np.log(3), abs=1e-15)

    def test_two_asset_value(self):
        assert psi([np.log(2)]) == pytest.approx(np.log(3), abs=1e-15)

    def test_extreme_argument(self):
        v = psi([1000.0])
        assert np.isfinite(v)
        assert v == pytest.approx(1000.0, abs=1e-12)

    @given(coord_strategy(), coord_strategy(), st.floats(0.01, 0.99))
    def test_convexity(self, x, y, t):
        x, y = np.array(x), np.array(y)
        lhs = psi(t * x + (1 - t) * y)
        assert lhs <= t * psi(x) + (1 - t) * psi(y) + 1e-12

    def test_fd_hessian_positive_definite(self, rng):
        for _ in range(20):
            x = rng.normal(size=3)
            H = fd_hessian(psi, x)
            assert np.linalg.eigvalsh((H + H.T) / 2).min() > 0


class TestSoftmaxPsi:
    """``_softmax_psi``, behind f, takes the softmax and psi of the same rows
    from one shifted exp: the same terms as from_primal_many and psi_many,
    added in the same order unless numpy's 8-way unrolled sum groups the n
    terms of the softmax's total otherwise than psi's n - 1 and its tail."""

    @staticmethod
    def rows(n, k):
        return np.random.default_rng([n, k]).normal(scale=3.0, size=(k, n - 1))

    @pytest.mark.parametrize("n", [*range(2, 8), *range(9, 16), 50])
    @pytest.mark.parametrize("k", [1, 50, 1000])
    def test_bitwise_the_two_kernels(self, n, k):
        X = self.rows(n, k)
        P, psi_x = S._softmax_psi(X)
        assert np.array_equal(_bits(P), _bits(S.from_primal_many(X)))
        assert np.array_equal(_bits(psi_x), _bits(S.psi_many(X)))
        assert _bits(S._softmax_psi(X[0])[1]) == _bits(psi_x[0])

    @pytest.mark.parametrize("n", [8, 16, 24])
    @pytest.mark.parametrize("k", [1, 50, 1000])
    def test_within_rounding_where_the_sum_regroups(self, n, k):
        X = self.rows(n, k)
        P, psi_x = S._softmax_psi(X)
        want = S.psi_many(X)
        assert np.array_equal(_bits(P), _bits(S.from_primal_many(X)))
        assert np.all(np.abs(psi_x - want) <= 1e-15 * np.abs(want))


class TestCost:
    def test_equal_arguments(self):
        c = cost([0.3, -0.5], [0.3, -0.5])
        assert c.nats == pytest.approx(np.log(3), abs=1e-15)
        assert c.normalized == pytest.approx(0.0, abs=1e-15)

    def test_direct_evaluation(self):
        c = cost([1.0, 0.0], [0.0, 0.0])
        assert c.nats == pytest.approx(np.log(2 + np.e), rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cost([1.0, 0.0], [0.0])

    def test_normalized_nonnegative_sweep(self, rng):
        T = rng.normal(scale=3.0, size=(10_000, 3))
        F = rng.normal(scale=3.0, size=(10_000, 3))
        worst = min(cost(t, f).normalized for t, f in zip(T[:500], F[:500]))
        assert worst >= 0.0
        # vectorized check over the full sweep
        from lgeo.simplex import psi_many

        x = T - F
        tilde = psi_many(x) - np.log(4) - x.sum(axis=1) / 4
        assert tilde.min() >= -1e-15

    def test_normalized_zero_iff_equal(self, rng):
        th = rng.normal(size=3)
        assert cost(th, th).normalized == pytest.approx(0.0, abs=1e-15)
        assert cost(th, th + 1e-3).normalized > 0.0

    def test_float_conversion(self):
        assert float(cost([0.0], [0.0])) == pytest.approx(np.log(2))
        assert isinstance(cost([0.0], [0.0]), CostValue)


class TestPrimalCoordType:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PrimalCoord([np.inf, 0.0])

    def test_dimension_property(self):
        assert PrimalCoord([0.1, 0.2]).n == 3

    def test_coordinate_rows_validated(self):
        assert coord_rows(np.zeros((4, 2)), rows=True)[0].shape == (4, 2)
        assert coord_rows(PrimalCoord([0.1, 0.2]))[0].shape == (2,)
        for bad in (np.array([[0.0, np.nan]]), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError):
                coord_rows(bad, rows=True)


class TestPointRows:
    def test_rows_and_coordinates_match_the_one_point_maps(self, rng):
        pts = rng.dirichlet(np.ones(5), size=3)
        P = point_rows(*pts, SimplexPoint(pts[0]))
        Th = to_primal_many(P)
        assert P.shape == (4, 5) and Th.shape == (4, 4)
        for p, row, th in zip([*pts, pts[0]], P, Th):
            assert np.array_equal(row, SimplexPoint(p).p)
            assert np.array_equal(th, to_primal(p).theta)

    def test_a_simplex_point_of_a_simplex_point(self):
        # np.array(point) must copy the read-only p, which the constructor
        # divides in place
        p = SimplexPoint([0.2, 0.3, 0.5])
        assert np.array_equal(SimplexPoint(p).p, p.p)
        assert np.array(p).flags.writeable and np.asarray(p) is p.p

    def test_each_point_validated(self):
        with pytest.raises(ValueError):
            point_rows([0.5, 0.5], [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            point_rows([0.2, 0.3, 0.5], [0.5, 0.5])

    def test_rows_are_bitwise_the_point_by_point_rows(self):
        # one array pass divides each row by its own sum, exactly as
        # SimplexPoint divides one point, and takes SimplexPoint rows as
        # stored (dividing those again would move some of them)
        rng = np.random.default_rng(21)
        for n in range(2, 61):
            for k in (1, 2, 3, 5):
                pts = rng.dirichlet(np.full(n, rng.uniform(0.3, 4.0)), size=k)
                pts *= 1.0 + rng.uniform(-5e-10, 5e-10, size=(k, 1))  # off-sum within SUM_TOL
                args = [SimplexPoint(x) if rng.random() < 0.4 else
                        (x.tolist() if rng.random() < 0.5 else x) for x in pts]
                ref = np.array([_one_point(x) for x in args])
                got = point_rows(*args)
                assert got.tobytes() == ref.tobytes(), (n, k)

    @pytest.mark.parametrize("points, message", [
        # dimension first checked once every point has passed its own checks
        (([0.2, 0.3, 0.5], [0.5, 0.5]), "dimension mismatch: points of sizes [3, 2]"),
        (([0.2, 0.3, 0.5], [1.0, 0.0]), "simplex point entries must be strictly positive"),
        (([0.2, 0.3, 0.5], [[0.5, 0.5]]), "a simplex point needs at least 2 coordinates"),
        (([0.2, 0.3, 0.5], [np.nan, 0.5, 0.5]), "simplex point entries must be finite"),
        (([0.2, 0.3, 0.5], [np.inf, 0.5, 0.5]), "simplex point entries must be finite"),
        (([0.5, 0.5], [0.0, 1.0]), "simplex point entries must be strictly positive"),
        (([0.5, 0.5], [1e-300, 1.0]), "simplex point entries must be strictly positive"),
        (([0.5, 0.5], [0.5, 0.7]), "coordinates sum to 1.2, not 1"),
        # the first failing point names the error, and within a point
        # finiteness comes before positivity, positivity before the sum
        (([0.6, 0.6], [np.nan, 0.0]), "coordinates sum to 1.2, not 1"),
        (([np.nan, 0.0, 1.5], [0.6, 0.6]), "simplex point entries must be finite"),
        (([0.0, 1.5], [np.nan, 0.5]), "simplex point entries must be strictly positive"),
        (([0.5, 0.5], [0.7, 0.7], [0.5]), "coordinates sum to 1.4, not 1"),
    ], ids=["ragged", "ragged-bad-entry", "ragged-2d", "nan", "inf", "zero", "floor", "off-sum",
            "first-point-first", "finite-first", "positive-before-sum", "sum-before-ragged"])
    def test_failing_points_raise_as_point_by_point(self, points, message):
        with pytest.raises(ValueError) as got:
            point_rows(*points)
        assert str(got.value) == message
        # the message is that of SimplexPoint on the first failing point
        bad = [x for x in points if not _valid(x)]
        if bad:
            with pytest.raises(ValueError) as ref:
                SimplexPoint(bad[0])
            assert str(ref.value) == message

    def test_messages_print_plain_floats(self):
        for call in (lambda: SimplexPoint([0.6, 0.6]), lambda: point_rows([0.6, 0.6]),
                     lambda: G.Portfolio([0.6, 0.5])):
            with pytest.raises(ValueError) as got:
                call()
            assert "sum to" in str(got.value) and "np.float64" not in str(got.value)

    def test_plain_arrays_build_no_simplex_point(self, monkeypatch):
        # the single-point library calls validate their plain-array points
        # as one array, not one SimplexPoint each
        gen = G.DiversityWeighted(0.5)
        p, q, r = np.random.default_rng(3).dirichlet(np.ones(4), size=3)
        ref = (lgeo.l_divergence(gen, q, p), lgeo.pythagorean_sign(gen, p, q, r))

        def forbidden(self, x):
            raise AssertionError("SimplexPoint built")

        monkeypatch.setattr(SimplexPoint, "__init__", forbidden)
        assert lgeo.l_divergence(gen, q, p) == ref[0]
        assert lgeo.pythagorean_sign(gen, p, q, r) == ref[1]
        with pytest.raises(AssertionError):
            point_rows([0.6, 0.6])  # a failing point goes through SimplexPoint


def _one_point(x) -> np.ndarray:
    """The row of one point validated on its own: a SimplexPoint as stored."""
    return (x if isinstance(x, SimplexPoint) else SimplexPoint(x)).p


def _valid(x) -> bool:
    try:
        SimplexPoint(x)
    except ValueError:
        return False
    return True


def _first_error(points) -> str:
    """The message that validating ``points`` one by one raises first."""
    for x in points:
        try:
            SimplexPoint(x)
        except ValueError as exc:
            return str(exc)
    return "dimension mismatch: points of sizes " + str([np.size(x) for x in points])


@st.composite
def point_args(draw, n=None):
    """k points of one dimension n in 2..50, entries down to about 1e-297
    before normalizing, sums off by up to 5e-10, each passed as a
    SimplexPoint, a list or an array."""
    n = draw(st.integers(2, 50)) if n is None else n
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = 10.0 ** -rng.uniform(0.0, rng.choice([2.0, 20.0, 297.0]), size=(k, n))
    P /= P.sum(axis=1, keepdims=True)
    P *= 1.0 + rng.uniform(-5e-10, 5e-10, size=(k, 1))
    kinds = draw(st.lists(st.sampled_from(["point", "list", "array"]), min_size=k, max_size=k))
    return [SimplexPoint(x) if kind == "point" else x.tolist() if kind == "list" else x
            for x, kind in zip(P, kinds)]


_BREAKS = {
    "nan": lambda x: np.where(np.arange(x.size) == 0, np.nan, x),
    "+inf": lambda x: np.where(np.arange(x.size) == x.size - 1, np.inf, x),
    "-inf": lambda x: np.where(np.arange(x.size) == 0, -np.inf, x),
    "zero": lambda x: np.where(np.arange(x.size) == x.size - 1, 0.0, x),
    "negative": lambda x: np.where(np.arange(x.size) == 0, -x[0], x),
    "off-sum": lambda x: x * (1.0 + 1e-8),
    "ragged": lambda x: np.append(x, 0.5) / 1.5,
    "2-d": lambda x: x[None, :],
}


@given(point_args())
def test_point_rows_are_the_one_point_rows_bitwise(points):
    ref = np.array([_one_point(x) for x in points])
    got = point_rows(*points)
    assert got.tobytes() == ref.tobytes()


@given(point_args(), st.data())
def test_failing_point_rows_raise_the_first_failing_points_error(points, data):
    # break one or two points (a SimplexPoint cannot be broken, so its
    # array is); the error is that of the first failing point, or the
    # dimension mismatch when each point is valid on its own
    points = list(points)
    for _ in range(data.draw(st.integers(1, 2))):
        j = data.draw(st.integers(0, len(points) - 1))
        points[j] = _BREAKS[data.draw(st.sampled_from(sorted(_BREAKS)))](np.asarray(points[j]))
    with pytest.raises(ValueError) as got:
        point_rows(*points)
    assert str(got.value) == _first_error(points)


@given(point_args())
def test_point_rows_against_a_generator_of_another_dimension(points):
    gen = G.equal_weighted(np.size(points[0]) + 1)
    with pytest.raises(ValueError, match=r"^dimension mismatch: generator .* points of dimension"):
        point_rows(*points, gen=gen)


Q3, R2, P3 = [0.2, 0.3, 0.5], [0.5, 0.5], [0.4, 0.4, 0.2]


@pytest.mark.parametrize("call", [
    lambda g: lgeo.primal_geodesic(g, Q3, R2),
    lambda g: lgeo.dual_geodesic(g, Q3, R2),
    lambda g: lgeo.primal_flow(g, Q3, R2),
    lambda g: lgeo.dual_flow(g, Q3, R2),
    lambda g: lgeo.c_divergence(g, Q3, R2),
    lambda g: lgeo.c_divergence_dual(g, Q3, R2),
    lambda g: lgeo.pyth_transport_gap(g, P3, Q3, R2),
    lambda g: lgeo.riem_gradient_primal(g, R2, Q3),
    lambda g: lgeo.riem_gradient_dual(g, R2, Q3),
    lambda g: lgeo.inverse_exp(g, Q3, R2, "primal"),
    lambda g: lgeo.inverse_exp(g, Q3, R2, "dual"),
    lambda g: lgeo.l_divergence(g, Q3, R2),
    lambda g: lgeo.pythagorean_sign(g, P3, Q3, R2),
], ids=["primal_geodesic", "dual_geodesic", "primal_flow", "dual_flow", "c_divergence",
        "c_divergence_dual", "pyth_transport_gap", "riem_gradient_primal", "riem_gradient_dual",
        "inverse_exp_primal", "inverse_exp_dual", "l_divergence", "pythagorean_sign"])
def test_points_of_different_dimension_are_rejected(call):
    # a point of the 2-simplex against points of the 3-simplex must not broadcast
    with pytest.raises(ValueError, match="dimension mismatch"):
        call(G.DiversityWeighted(0.5))


# ---------------------------------------------------------------------------
# row_sum and row_max against the ndarray methods

_SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


@st.composite
def reduction_cases(draw):
    """A float array of shape (n,), (N, n) or (a, b, n), n = 1..10, with
    N and a * b on both sides of the column-loop threshold, laid out
    contiguously, as a column slice, as a transpose or with a row step, and
    with +-0.0, +-inf and nan entries."""
    n = draw(st.integers(1, 10))
    rows = draw(st.sampled_from([1, 3, S._COLUMN_ROWS - 1, S._COLUMN_ROWS, S._COLUMN_ROWS + 1,
                                 2 * S._COLUMN_ROWS + 5]))
    shape = draw(st.sampled_from([(n,), (rows, n), (2, rows // 2 + 1, n)]))
    layout = draw(st.sampled_from(["contiguous", "slice", "transpose", "step"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(sh):
        return rng.standard_normal(sh) * 10.0 ** rng.integers(-12, 12, size=sh)

    if layout == "contiguous":
        X = values(shape)
    elif layout == "slice":  # like Pi[:, :-1]
        X = values(shape[:-1] + (n + 1,))[..., :-1]
    elif layout == "transpose":  # every stride reversed, the last axis strided
        X = values(shape[::-1]).T
    else:
        X = values((2 * shape[0],) + shape[1:])[::2]
    special = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    mask = rng.random(X.shape) < special
    X[mask] = rng.choice(_SPECIAL, size=int(mask.sum()))
    if draw(st.booleans()):  # signed zeros only
        X[...] = rng.choice(np.array([0.0, -0.0]), size=X.shape)
    return X


class TestRowReductions:
    @given(reduction_cases(), st.booleans())
    def test_row_sum_is_the_ndarray_sum_bitwise(self, X, keepdims):
        with np.errstate(all="ignore"):
            got, want = row_sum(X, keepdims=keepdims), X.sum(axis=-1, keepdims=keepdims)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))

    @given(reduction_cases(), st.booleans(), st.sampled_from([None, 0.0]))
    def test_row_max_is_the_ndarray_max_bitwise(self, X, keepdims, initial):
        kwargs = {} if initial is None else {"initial": initial}
        with np.errstate(all="ignore"):
            got = row_max(X, keepdims=keepdims, initial=initial)
            want = X.max(axis=-1, keepdims=keepdims, **kwargs)
        assert got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))

    @staticmethod
    def _reduce_calls(monkeypatch, X) -> int:
        """How many times row_sum and row_max of X call the ufunc reduce."""
        calls = []
        for name in ("_add_reduce", "_max_reduce"):
            reduce = getattr(S, name)
            monkeypatch.setattr(S, name, lambda *a, reduce=reduce: calls.append(1) or reduce(*a))
        row_sum(X), row_max(X), row_max(X, initial=0.0)
        return len(calls)

    @pytest.mark.parametrize("shape", [(3,), (S._COLUMN_ROWS - 1, 3), (S._COLUMN_ROWS, 8),
                                       (S._COLUMN_ROWS, 1), (3, S._COLUMN_ROWS)])
    def test_other_shapes_call_the_ndarray_method(self, monkeypatch, shape):
        # single points, few rows, a long or unit last axis, and the (3, n)
        # stacks of the single-point calls keep the ndarray method
        assert self._reduce_calls(monkeypatch, np.ones(shape)) == 3

    @pytest.mark.parametrize("n", range(2, 8))
    def test_many_rows_of_a_short_axis_loop_over_columns(self, monkeypatch, n):
        assert self._reduce_calls(monkeypatch, np.ones((S._COLUMN_ROWS, n))) == 0
        assert self._reduce_calls(monkeypatch, np.ones((2, S._COLUMN_ROWS // 2, n))) == 0
