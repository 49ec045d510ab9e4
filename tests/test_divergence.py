from types import SimpleNamespace

import numpy as np
import pytest

from lgeo import generators as G
from lgeo import divergence as D
from lgeo.simplex import from_primal, psi, psi_many, to_primal

from conftest import builtin_zoo, dirichlet_points
from _oracles import enumerated_c_cyclical_monotone, l_divergence_gradient_form


def theta_of(p):
    return to_primal(p).theta


class TestLDivergence:
    def test_zero_at_identical_points(self, rng):
        for name, gen in builtin_zoo(3).items():
            p = rng.dirichlet(np.ones(3))
            assert abs(D.l_divergence(gen, p, p).value) < 1e-12, name

    def test_two_asset_excess_growth(self):
        # equal-weighted n=2: T((3/4,1/4) | (1/2,1/2)) = -0.5 log(3/4)
        gen = G.equal_weighted(2)
        val = D.l_divergence(gen, [0.75, 0.25], [0.5, 0.5]).value
        assert val == pytest.approx(-0.5 * np.log(0.75), rel=1e-12)
        assert val == pytest.approx(0.143841, abs=5e-7)

    def test_portfolio_and_gradient_forms_agree(self, rng):
        for name, gen in builtin_zoo(4).items():
            q = rng.dirichlet(np.ones(4))
            p = rng.dirichlet(np.ones(4))
            a = D.l_divergence(gen, q, p).value
            b = l_divergence_gradient_form(gen, q, p)
            assert abs(a - b) < 1e-10, name

    def test_numeraire_invariance_constant_weighted(self, rng):
        gen = G.constant_weighted([0.5, 0.3, 0.2])
        for _ in range(20):
            p = rng.dirichlet(np.ones(3))
            q = rng.dirichlet(np.ones(3))
            w = rng.uniform(0.2, 5.0, size=3)
            pt = w * p / (w @ p)
            qt = w * q / (w @ q)
            assert D.l_divergence(gen, q, p).value == pytest.approx(
                D.l_divergence(gen, qt, pt).value, abs=1e-12
            )

    def test_nonnegative_sweep(self, rng):
        for n in (2, 4):
            P = dirichlet_points(rng, n, 300)
            Q = dirichlet_points(rng, n, 300)
            for name, gen in builtin_zoo(n).items():
                vals = [D.l_divergence(gen, q, p).value for q, p in zip(Q[:50], P[:50])]
                assert min(vals) > 0.0, name


class TestCoordinateRepresentations:
    def test_zero_on_diagonal(self, rng):
        gen = G.diversity_weighted(0.5)
        th = rng.normal(size=2)
        assert abs(D.l_divergence_primal(gen, th, th).value) < 1e-14
        ph = G.dual_coord(gen, th).phi
        assert abs(D.l_divergence_dual(gen, ph, ph).value) < 1e-14

    def test_translation_invariance_constant_weighted(self, rng):
        gen = G.constant_weighted([0.4, 0.35, 0.25])
        th1, th2 = rng.normal(size=2), rng.normal(size=2)
        a = rng.normal(size=2)
        base = D.l_divergence_primal(gen, th1, th2).value
        shifted = D.l_divergence_primal(gen, th1 + a, th2 + a).value
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_three_representations_agree(self, rng):
        for name, gen in builtin_zoo(3).items():
            for _ in range(10):
                q = rng.dirichlet(np.ones(3))
                p = rng.dirichlet(np.ones(3))
                t_eucl = D.l_divergence(gen, q, p).value
                t_prim = D.l_divergence_primal(gen, theta_of(q), theta_of(p)).value
                ph_q = G.dual_coord(gen, theta_of(q)).phi
                ph_p = G.dual_coord(gen, theta_of(p)).phi
                t_dual = D.l_divergence_dual(gen, ph_q, ph_p).value
                assert abs(t_eucl - t_prim) < 1e-9, name
                assert abs(t_eucl - t_dual) < 1e-9, name

    def test_representation_tags(self, rng):
        gen = G.equal_weighted(3)
        q, p = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        assert D.l_divergence(gen, q, p).rep == "euclidean"
        assert D.l_divergence_primal(gen, theta_of(q), theta_of(p)).rep == "primal"


class TestBregman:
    def test_zero_on_diagonal(self, rng):
        gen = G.diversity_weighted(0.4)
        p = rng.dirichlet(np.ones(3))
        assert abs(D.bregman(gen, p, p)) < 1e-14

    def test_shannon_entropy_gives_relative_entropy(self, rng):
        shannon = G.CustomGenerator(
            lambda p: -float(p @ np.log(p)),
            grad=lambda p: -(np.log(p) + 1.0),
            name="shannon",
        )
        for _ in range(10):
            p = rng.dirichlet(np.ones(4))
            q = rng.dirichlet(np.ones(4))
            kl = float(q @ np.log(q / p))
            assert D.bregman(shannon, q, p) == pytest.approx(kl, rel=1e-10, abs=1e-12)

    def test_bregman_dominates_l_divergence(self, rng):
        for name, gen in builtin_zoo(3).items():
            for _ in range(40):
                p = rng.dirichlet(np.ones(3))
                q = rng.dirichlet(np.ones(3))
                breg = D.bregman(gen, q, p)
                ldiv = D.l_divergence(gen, q, p).value
                assert breg >= ldiv - 1e-12, name
                assert ldiv >= -1e-12


class TestCTransform:
    def test_constant_weighted_conjugate_affine(self, rng):
        w = np.array([0.5, 0.3, 0.2])
        gen = G.constant_weighted(w)
        entropy = -float(w @ np.log(w))
        for _ in range(5):
            ph = rng.normal(size=2)
            val = D.c_transform(gen, ph)
            assert val == pytest.approx(w[:2] @ (-ph) + entropy, abs=1e-9)

    def test_equal_weighted_at_zero(self):
        gen = G.equal_weighted(4)
        assert D.c_transform(gen, np.zeros(3)) == pytest.approx(np.log(4), abs=1e-10)

    def test_fenchel_inequality_random_pairs(self, rng):
        gen = G.diversity_weighted(0.5)
        for _ in range(20):
            th = rng.normal(size=2)
            ph = rng.normal(size=2)
            fstar = D.c_transform(gen, ph)
            assert D.f_value(gen, th) + fstar <= psi(th - ph) + 1e-9

    def test_fenchel_equality_on_graph_strict_off(self, rng):
        gen = G.diversity_weighted(0.5)
        th = rng.normal(size=2)
        ph = G.dual_coord(gen, th).phi
        fstar = D.c_transform(gen, ph)
        gap_on = psi(th - ph) - D.f_value(gen, th) - fstar
        assert abs(gap_on) < 1e-8
        ph_off = ph + np.array([2e-3, 0.0])
        fstar_off = D.c_transform(gen, ph_off)
        gap_off = psi(th - ph_off) - D.f_value(gen, th) - fstar_off
        assert gap_off > 0.0

    def test_inverse_dual_round_trip_numeric(self, rng):
        # mix generator exercises the Newton path (no closed form)
        zoo = builtin_zoo(3)
        gen = zoo["mix"]
        for _ in range(5):
            th = rng.normal(size=2) * 0.8
            ph = G.dual_coord(gen, th).phi
            back = D.inverse_dual_coord(gen, ph)
            assert np.max(np.abs(back - th)) < 1e-8

    def test_row_arrays_match_row_calls(self, rng):
        # (N, m) inputs answer row for row.  Closed forms are elementwise, so
        # rows equal per-row calls exactly.  The Newton family (mix) solves
        # all rows in one batch; it stops at |grad u| < 1e-10, so each row and
        # its per-row call recover theta to within 1e-10 ||H^-1|| (the
        # first-order error of that stop; H is the Hessian of u at theta)
        eps = np.finfo(float).eps
        for n in (3, 10):
            Th = rng.normal(size=(12, n - 1)) * 0.8
            for name, gen in builtin_zoo(n).items():
                f_rows = D.f_value(gen, Th)
                f_ref = np.array([D.f_value(gen, th) for th in Th])
                assert f_rows.shape == (12,), name
                assert np.all(np.abs(f_rows - f_ref) <= 16 * eps * (1 + psi_many(Th))), name
                Ph = np.array([G.dual_coord(gen, th).phi for th in Th])
                ref = np.array([D.inverse_dual_coord(gen, ph) for ph in Ph])
                rows = D.inverse_dual_coord(gen, Ph)
                assert rows.shape == Ph.shape, name
                if name != "mix":
                    assert np.array_equal(rows, ref), name
                    continue
                _, _, H = D._u_value_grad_hess(gen, Th, Ph)
                stop = 1e-10 / np.abs(np.linalg.eigvalsh(H)).min(axis=1)
                assert np.all(np.linalg.norm(rows - Th, axis=1) < stop), name
                assert np.all(np.linalg.norm(ref - Th, axis=1) < stop), name
                assert np.all(np.linalg.norm(rows - ref, axis=1) < 2 * stop), name
        # n = 50: the dual coordinates of the rows are the rows asked for, to
        # the stop |grad u| < 1e-10 over portfolio weights of order 1/n
        gen = builtin_zoo(50)["mix"]
        Ph = np.array([G.dual_coord(gen, th).phi for th in rng.normal(size=(12, 49)) * 0.8])
        rows = D.inverse_dual_coord(gen, Ph)
        back = np.array([G.dual_coord(gen, th).phi for th in rows])
        assert np.max(np.abs(back - Ph)) < 1e-7

    def test_shifted_row_in_block_matches_its_own_solve(self, monkeypatch):
        # row 2 starts where the Hessian of u has a positive eigenvalue, so the
        # block's Cholesky test fails and the block shifts by eigenvalues; the
        # other rows start at their own dual coordinates, where it is negative
        # definite.  Each row must end bitwise as in its own one-row solve,
        # with the same u value: log_gen rounds the same for every row count
        gen = builtin_zoo(5)["mix"]
        Th = np.random.default_rng(5).normal(size=(6, 4)) * 0.8
        Ph = np.array([G.dual_coord(gen, th).phi for th in Th])
        X0 = Ph.copy()
        X0[2] += 5.0 * np.array([1.0, -1.0, -1.0, -1.0])
        _, _, H = D._u_value_grad_hess(gen, X0, Ph)
        eigmax = np.linalg.eigvalsh(H)[:, -1]
        assert eigmax[2] > 0 and np.all(np.delete(eigmax, 2) < -1e-12)
        eigvalsh, blocks = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: blocks.append(len(A)) or eigvalsh(A))
        Th_rows, U_rows, ok_rows = D._newton_max_u(gen, Ph, X0)
        assert blocks[0] == 6
        assert ok_rows.all()
        for j in range(6):
            th, u, ok = D._newton_max_u(gen, Ph[j : j + 1], X0[j : j + 1])
            assert np.array_equal(Th_rows[j], th[0]) and ok[0], j
            assert U_rows[j] == u[0], j

    def test_hessian_only_for_rows_that_step(self, monkeypatch):
        # the Hessian of u is built after the converged rows retire, so rows
        # started at their solution build none, and a cold solve builds
        # fewer than it evaluates u (last iterates and line-search tries)
        gen = builtin_zoo(5)["mix"]
        Th = np.random.default_rng(7).normal(size=(8, 4)) * 0.8
        Ph = np.array([G.dual_coord(gen, th).phi for th in Th])
        solved, _, ok = D._newton_max_u(gen, Ph, Ph)
        assert ok.all()
        value_grad, hess, counts = D._u_value_grad, D._u_hess, {"u": 0, "hess": 0}

        def counted_value_grad(gen, Th, Ph):
            counts["u"] += Th.shape[0]
            return value_grad(gen, Th, Ph)

        def counted_hess(gen, Th, S):
            counts["hess"] += Th.shape[0]
            return hess(gen, Th, S)

        monkeypatch.setattr(D, "_u_value_grad", counted_value_grad)
        monkeypatch.setattr(D, "_u_hess", counted_hess)
        _, _, ok = D._newton_max_u(gen, Ph, solved)
        assert ok.all() and counts == {"u": 8, "hess": 0}
        counts.update(u=0, hess=0)
        _, _, ok = D._newton_max_u(gen, Ph, Ph)
        assert ok.all() and 0 < counts["hess"] < counts["u"]


def _stuck_newton(gen, Ph, X0, *args, **kwargs):
    """A Newton solve that leaves every row at its start, not converged."""
    u, _, _ = D._u_value_grad(gen, X0, Ph)
    return X0.copy(), u, np.zeros(Ph.shape[0], dtype=bool)


class TestNelderMeadFallback:
    # mix has no closed-form inverse, so c_transform_argmin tries Newton from
    # the barycenter alone and, with Newton stuck, falls back to Nelder-Mead
    # (scipy.optimize.minimize, imported on its first call) from there
    def test_finds_the_newton_minimizer(self, rng, monkeypatch):
        gen = builtin_zoo(3)["mix"]
        Ph = np.array([G.dual_coord(gen, th).phi for th in rng.normal(size=(6, 2)) * 0.8])
        ref = np.array([D.c_transform_argmin(gen, ph) for ph in Ph])
        calls = []
        minimize = D.minimize
        monkeypatch.setattr(D, "_newton_max_u", _stuck_newton)
        monkeypatch.setattr(D, "minimize", lambda *a, **k: calls.append(1) or minimize(*a, **k))
        fallback = np.array([D.c_transform_argmin(gen, ph) for ph in Ph])
        assert len(calls) == len(Ph)
        _, grad, H = D._u_value_grad_hess(gen, fallback, Ph)
        assert np.all(np.linalg.norm(grad, axis=1) <= 1e-7)
        # |grad u| <= 1e-7 puts theta within 1e-7 ||H^-1|| of the minimizer,
        # and Newton's stop |grad u| < 1e-10 puts ref within 1e-10 ||H^-1||
        stop = (1e-7 + 1e-10) / np.abs(np.linalg.eigvalsh(H)).min(axis=1)
        assert np.all(np.linalg.norm(fallback - ref, axis=1) < stop)

    def test_bad_fallback_point_raises(self, monkeypatch):
        gen = builtin_zoo(3)["mix"]
        ph = G.dual_coord(gen, np.array([0.3, -0.5])).phi
        monkeypatch.setattr(D, "_newton_max_u", _stuck_newton)
        monkeypatch.setattr(D, "minimize", lambda fun, x0, **kw: SimpleNamespace(x=x0 + 1.0))
        with pytest.raises(D.ConvergenceError, match="did not converge"):
            D.c_transform_argmin(gen, ph)


class TestCDivergence:
    def test_zero_on_diagonal(self, rng):
        gen = G.diversity_weighted(0.5)
        p = rng.dirichlet(np.ones(3))
        assert abs(D.c_divergence(gen, p, p)) < 1e-12

    def test_matches_l_divergence(self, rng):
        for name, gen in builtin_zoo(3).items():
            for _ in range(10):
                p = rng.dirichlet(np.ones(3))
                p2 = rng.dirichlet(np.ones(3))
                assert abs(
                    D.c_divergence(gen, p, p2) - D.l_divergence(gen, p, p2).value
                ) < 1e-9, name

    def test_dual_divergence_transposes(self, rng):
        for name, gen in builtin_zoo(3).items():
            for _ in range(10):
                p = rng.dirichlet(np.ones(3))
                p2 = rng.dirichlet(np.ones(3))
                assert abs(
                    D.c_divergence(gen, p, p2) - D.c_divergence_dual(gen, p2, p)
                ) < 1e-9, name


class TestCyclicalMonotonicity:
    def test_single_pair(self):
        sample = D.CouplingSample([(np.zeros(2), np.ones(2))])
        assert D.is_c_cyclical_monotone(sample)

    def test_dual_graph_is_monotone(self, rng):
        for name, gen in builtin_zoo(3).items():
            thetas = rng.normal(size=(6, 2))
            pairs = [(th, G.dual_coord(gen, th).phi) for th in thetas]
            assert D.is_c_cyclical_monotone(D.CouplingSample(pairs)), name

    def test_swapped_assignment_fails(self, rng):
        gen = G.diversity_weighted(0.5)
        thetas = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.5]])
        phis = [G.dual_coord(gen, th).phi for th in thetas]
        # swap the partners of the two far-apart points
        pairs = [(thetas[0], phis[1]), (thetas[1], phis[0]), (thetas[2], phis[2])]
        assert not D.is_c_cyclical_monotone(D.CouplingSample(pairs))

    def test_agrees_with_full_enumeration(self):
        # graphs, shuffled graphs and perturbed graphs of 2..8 pairs, each
        # checked against every permutation of the whole sample
        rng = np.random.default_rng(4242)
        zoo = list(builtin_zoo(3).values())
        non_monotone = 0
        for k in range(350):
            N = 2 + k % 7
            gen = zoo[k % len(zoo)]
            thetas = rng.normal(size=(N, 2)) * 1.2
            phis = np.array([G.dual_coord(gen, th).phi for th in thetas])
            if k % 3 == 1:
                phis = phis[rng.permutation(N)]
            elif k % 3 == 2:
                phis = phis + 0.3 * rng.normal(size=phis.shape)
            sample = D.CouplingSample(list(zip(thetas, phis)))
            expected = enumerated_c_cyclical_monotone(sample, m_max=N)
            assert D.is_c_cyclical_monotone(sample) == expected, k
            non_monotone += not expected
        assert non_monotone >= 100

    def test_large_dual_graph(self, rng):
        gen = G.diversity_weighted(0.5)
        thetas = rng.normal(size=(200, 2)) * 1.2
        phis = [G.dual_coord(gen, th).phi for th in thetas]
        assert D.is_c_cyclical_monotone(D.CouplingSample(list(zip(thetas, phis))))
        # swap the partners of the two points farthest apart along theta_1
        i, j = np.argmin(thetas[:, 0]), np.argmax(thetas[:, 0])
        phis[i], phis[j] = phis[j], phis[i]
        assert not D.is_c_cyclical_monotone(D.CouplingSample(list(zip(thetas, phis))))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            D.CouplingSample([])


class TestMCM:
    def test_constant_cycle(self):
        gen = G.equal_weighted(3)
        p = np.full(3, 1 / 3)
        assert D.is_mcm(gen.portfolio, [p, p, p])

    def test_generated_portfolio_random_cycles(self, rng):
        gen = G.diversity_weighted(0.5)
        for _ in range(100):
            pts = list(dirichlet_points(rng, 3, 5))
            cycle = pts + [pts[0]]
            assert D.is_mcm(gen.portfolio, cycle)

    def test_open_cycle_rejected(self, rng):
        gen = G.equal_weighted(3)
        pts = dirichlet_points(rng, 3, 3)
        with pytest.raises(ValueError):
            D.is_mcm(gen.portfolio, list(pts))

    def test_adversarial_map_fails_on_some_cycle(self, rng):
        # a momentum map (overweighting winners) is not functionally
        # generated; randomized cycle search must find an MCM violation
        adversarial = lambda p: p**2 / np.sum(p**2)
        found_violation = False
        for _ in range(400):
            pts = list(dirichlet_points(rng, 3, rng.integers(2, 5)))
            cycle = pts + [pts[0]]
            if not D.is_mcm(adversarial, cycle):
                found_violation = True
                break
        assert found_violation


class TestTransportGap:
    def test_degenerate_triple(self, rng):
        gen = G.diversity_weighted(0.5)
        p = rng.dirichlet(np.ones(3))
        r = rng.dirichlet(np.ones(3))
        assert abs(D.pyth_transport_gap(gen, p, p, r)) < 1e-12

    def test_matches_divergence_difference(self, rng):
        for name, gen in builtin_zoo(3).items():
            for _ in range(15):
                p, q, r = dirichlet_points(rng, 3, 3)
                gap_cost = D.pyth_transport_gap(gen, p, q, r)
                gap_div = (
                    D.l_divergence(gen, q, p).value
                    + D.l_divergence(gen, r, q).value
                    - D.l_divergence(gen, r, p).value
                )
                assert abs(gap_cost - gap_div) < 1e-9, name
