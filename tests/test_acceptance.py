"""Acceptance criteria, one test per criterion, run at full stated scale.

Each test prints a single PASS/FAIL line so the suite doubles as a
checklist; tolerances are pinned to the package contract, not calibrated.
"""

import time
from itertools import permutations as iter_permutations

import numpy as np
import pytest
from scipy.optimize import brentq

from lgeo import generators as G
from lgeo import geodesics as gd
from lgeo import geometry as geo
from lgeo import transport as T
from lgeo import finance as F
from lgeo.divergence import (
    CouplingSample,
    is_c_cyclical_monotone,
    l_divergence,
    l_divergence_dual,
    l_divergence_primal,
)
from lgeo.generators import dual_coord, dual_euclidean
from lgeo.simplex import from_primal, from_primal_many, psi_many, to_primal, to_primal_many

from _oracles import (
    brute_force_optimal,
    fd_lowered_dual_connection,
    fd_lowered_primal_connection,
    fd_metric_rows,
    integrate_geodesic_stages,
    point_segment_distance,
    polyline_hausdorff,
    rc_curvature_assembled,
    t_dual_rows,
    t_primal_rows,
)


def acceptance_zoo(n):
    rng = np.random.default_rng(500 + n)
    w = rng.dirichlet(np.ones(n)) * 0.6 + 0.4 / n
    cw = G.ConstantWeighted(w)
    dw = G.DiversityWeighted(0.5)
    gdw = G.GeneralizedDiversityWeighted(rng.uniform(0.5, 2.0, size=n), 0.4)
    mix = G.ConvexCombination([cw, dw], [0.5, 0.5])
    return {"constant": cw, "diversity": dw, "gdw": gdw, "mix": mix}


def report(num, label, ok):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num} failed: {label}"


# -- batched primitives -----------------------------------------------------

def batch_T(gen, Q, P, logv_Q=None, logv_P=None):
    """Divergence T(q|p) row-wise through the portfolio form."""
    pi_P = gen.portfolio(P)
    if logv_Q is None:
        logv_Q = gen.log_gen(Q)
    if logv_P is None:
        logv_P = gen.log_gen(P)
    return np.log(np.einsum("ij,ij->i", pi_P, Q / P)) - (logv_Q - logv_P)


def batch_phi(gen, Theta, P=None):
    if P is None:
        P = from_primal_many(Theta)
    Pi = gen.portfolio(P)
    return Theta - (np.log(Pi[:, :-1]) - np.log(Pi[:, -1:]))


def batch_two_point(Pi_at_second, Delta):
    """Pi_k weights: portfolio at the second point tilted by exp(Delta)."""
    z = np.log(Pi_at_second) + np.concatenate([Delta, np.zeros((Delta.shape[0], 1))], axis=1)
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    return w / w.sum(axis=1, keepdims=True)


def test_criterion_01_divergence_identities():
    start = time.monotonic()
    ok = True
    N = 10_000
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5):
        for name, gen in acceptance_zoo(n).items():
            P = rng.dirichlet(np.ones(n), size=N)
            Q = rng.dirichlet(np.ones(n), size=N)
            logv_P = gen.log_gen(P)
            logv_Q = gen.log_gen(Q)
            Tqp = batch_T(gen, Q, P, logv_Q, logv_P)
            ok &= bool(Tqp.min() > 0.0)
            # Bregman dominates: B = T + (ratio - 1 - log ratio) >= T >= 0
            ratio = np.einsum("ij,ij->i", gen.portfolio(P), Q / P)
            breg = Tqp + (ratio - 1.0 - np.log(ratio))
            ok &= bool(np.all(breg >= Tqp - 1e-12) and breg.min() > 0.0)
            # diagonal vanishes
            diag = batch_T(gen, P[:64], P[:64])
            ok &= bool(np.max(np.abs(diag)) <= 1e-12)
            # c-divergence via its defining expression
            Th_P, Th_Q = to_primal_many(P), to_primal_many(Q)
            Ph_P, Ph_Q = batch_phi(gen, Th_P, P), batch_phi(gen, Th_Q, Q)
            f_P = logv_P + psi_many(Th_P)
            f_Q = logv_Q + psi_many(Th_Q)
            fstar_P = psi_many(Th_P - Ph_P) - f_P
            fstar_Q = psi_many(Th_Q - Ph_Q) - f_Q
            D = psi_many(Th_Q - Ph_P) - psi_many(Th_P - Ph_P) - (f_Q - f_P)
            ok &= bool(np.max(np.abs(Tqp - D)) < 1e-9)
            # D(q|p) = D*(p|q) with D* from its own defining expression
            Dstar = psi_many(Th_Q - Ph_P) - psi_many(Th_Q - Ph_Q) - (fstar_P - fstar_Q)
            ok &= bool(np.max(np.abs(D - Dstar)) < 1e-9)
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    report(1, f"divergence identities, 10^4 pairs x 4 generators x n=2..5 "
              f"({elapsed:.1f}s)", ok)


def test_criterion_02_metric_oracle():
    # the finite-difference divergences of all 100 points of a generator are
    # rows of one T evaluation, primal and dual; the rel and inv arrays keep a
    # nan from any row, which fails the check
    rng = np.random.default_rng(22)
    rel, inv = [], []
    for name, gen in acceptance_zoo(3).items():
        Th = rng.normal(size=(100, 2)) * 0.7
        Ph = np.array([dual_coord(gen, th).phi for th in Th])
        metrics = [geo.metric_primal(gen, th) for th in Th]
        dual_metrics = [geo.metric_dual(gen, ph) for ph in Ph]
        oracles = (fd_metric_rows(lambda A, B: t_primal_rows(gen, A, B), Th),
                   fd_metric_rows(lambda A, B: t_dual_rows(gen, A, B), Ph))
        for ms, fd in zip((metrics, dual_metrics), oracles):
            entries = np.array([g.entries for g in ms])
            inverses = np.array([g.inv for g in ms])
            scale = np.max(np.abs(entries), axis=(1, 2))
            rel.append(np.max(np.abs(entries - fd), axis=(1, 2)) / scale)
            inv.append(np.max(np.abs(entries @ inverses - np.eye(2)), axis=(1, 2)))
    worst_rel, worst_inv = np.max(rel), np.max(inv)
    ok = worst_rel < 1e-5 and worst_inv < 1e-8
    report(2, f"metric oracle, primal+dual (worst rel {worst_rel:.1e}, "
              f"inverse {worst_inv:.1e})", ok)


def test_criterion_03_connection_and_curvature():
    rng = np.random.default_rng(33)
    ok = True
    for name, gen in acceptance_zoo(3).items():
        T2p = lambda a, b: l_divergence_primal(gen, a, b).value
        T2d = lambda a, b: l_divergence_dual(gen, a, b).value
        for _ in range(4):
            th = rng.normal(size=2) * 0.6
            # raised closed forms vs raised finite-difference assembly
            low_fd = fd_lowered_primal_connection(T2p, th)
            raised_fd = np.einsum("ijm,mk->ijk", low_fd, geo.metric_primal(gen, th).inv)
            ok &= np.max(np.abs(raised_fd - geo.christoffel_primal(gen, th).gamma)) < 1e-4
            ph = dual_coord(gen, th).phi
            lowd_fd = fd_lowered_dual_connection(T2d, ph)
            raisedd_fd = np.einsum("ijm,mk->ijk", lowd_fd, geo.metric_dual(gen, ph).inv)
            ok &= np.max(np.abs(raisedd_fd - geo.christoffel_dual(gen, ph).gamma)) < 1e-4
    # curvature: assembly matches the closed form; sectional -1; Einstein
    planes = 0
    for n in (3, 4):
        for name, gen in acceptance_zoo(n).items():
            for _ in range(13):
                th = rng.normal(size=n - 1) * 0.5
                R_as = rc_curvature_assembled(gen, th, "primal")
                R_cf = geo.rc_curvature(gen, th, "primal")
                ok &= np.max(np.abs(R_as - R_cf)) < 1e-4
                g = geo.metric_primal(gen, th)
                u, v = rng.normal(size=n - 1), rng.normal(size=n - 1)
                Ruvv = np.einsum("ijkl,i,j,k->l", R_as, u, v, v)
                num = float(Ruvv @ g.entries @ u)
                den = g.inner(u, u) * g.inner(v, v) - g.inner(u, v) ** 2
                ok &= abs(num / den + 1.0) < 1e-8
                planes += 1
                ric = np.einsum("ijki->jk", R_as)
                ok &= np.max(np.abs(ric + (n - 2) * g.entries)) < 1e-6
    ok &= planes >= 100
    report(3, f"connections and curvature ({planes} planes, sectional -1)", ok)


def interior_points(rng, n, size):
    """Random points kept mildly away from the boundary, where the
    spline-differentiation residual oracle loses meaning."""
    return 0.85 * rng.dirichlet(np.ones(n), size=size) + 0.15 / n


def test_criterion_04_geodesics():
    rng = np.random.default_rng(44)
    ok = True
    for name, gen in acceptance_zoo(3).items():
        q, r, p = interior_points(rng, 3, 3)
        c = gd.primal_geodesic(gen, q, r)
        ok &= point_segment_distance(c.euclidean_trace(), q, r).max() < 1e-8
        ok &= gd.geodesic_residual(gen, c, trim=3) < 1e-5
        cd = gd.dual_geodesic(gen, q, p)
        a, b = dual_euclidean(gen, q).p, dual_euclidean(gen, p).p
        ok &= point_segment_distance(cd.euclidean_trace(), a, b).max() < 1e-8
        ok &= gd.geodesic_residual(gen, cd, trim=3) < 1e-5
        # the exponential map and the RK4 oracle from the first point and velocity
        for integrated in (
            gd.integrate_geodesic(gen, c.points[0], c.velocities[0], "primal", steps=256),
            integrate_geodesic_stages(gen, c.points[0], c.velocities[0], "primal", steps=256),
        ):
            ok &= polyline_hausdorff(integrated.euclidean_trace(), c.euclidean_trace()) < 1e-6
    report(4, "primal/dual geodesics: collinearity, residuals, exp map and RK4 traces", ok)


def test_criterion_05_gradient_flows():
    ok = True
    q = np.array([0.6, 0.25, 0.15])
    r = np.array([0.15, 0.35, 0.5])
    p = np.array([0.3, 0.5, 0.2])
    for name, gen in acceptance_zoo(3).items():
        th_r = to_primal(r).theta
        flow = gd.primal_flow(gen, q, r, horizon=25.0, steps=600)
        vals = np.array([l_divergence_primal(gen, th_r, th).value for th in flow.points[::25]])
        ok &= bool(np.all(np.diff(vals) <= 1e-15))
        ok &= np.max(np.abs(flow.points[-1] - th_r)) < 1e-6
        ok &= polyline_hausdorff(
            flow.euclidean_trace(), gd.primal_geodesic(gen, q, r).euclidean_trace()
        ) < 1e-5
        dflow = gd.dual_flow(gen, q, p, horizon=25.0, steps=600)
        ph_p = dual_coord(gen, to_primal(p).theta).phi
        ok &= np.max(np.abs(dflow.points[-1] - ph_p)) < 1e-6
        ok &= polyline_hausdorff(
            dflow.euclidean_trace(), gd.dual_geodesic(gen, q, p).euclidean_trace()
        ) < 1e-5
    report(5, "gradient flows: monotone, convergent, geodesic traces", ok)


def test_criterion_06_pythagorean_theorem():
    rng = np.random.default_rng(66)
    ok = True
    N = 10_000
    checked = 0
    for n in (3, 4):
        for name, gen in acceptance_zoo(n).items():
            P = rng.dirichlet(np.ones(n), size=N)
            Q = rng.dirichlet(np.ones(n), size=N)
            R = rng.dirichlet(np.ones(n), size=N)
            logv = {id(X): gen.log_gen(X) for X in (P, Q, R)}
            gap = (
                batch_T(gen, Q, P, logv[id(Q)], logv[id(P)])
                + batch_T(gen, R, Q, logv[id(R)], logv[id(Q)])
                - batch_T(gen, R, P, logv[id(R)], logv[id(P)])
            )
            Th_P, Th_Q, Th_R = (to_primal_many(X) for X in (P, Q, R))
            Pi_Q = gen.portfolio(Q)
            Pi_P = gen.portfolio(P)
            # transport-perturbation gap equals the divergence gap
            Ph_P = Th_P - (np.log(Pi_P[:, :-1]) - np.log(Pi_P[:, -1:]))
            Ph_Q = Th_Q - (np.log(Pi_Q[:, :-1]) - np.log(Pi_Q[:, -1:]))
            tgap = (
                psi_many(Th_Q - Ph_P) + psi_many(Th_R - Ph_Q)
                - psi_many(Th_R - Ph_P) - psi_many(Th_Q - Ph_Q)
            )
            ok &= bool(np.max(np.abs(gap - tgap)) < 1e-9)
            # metric inner product of the two geodesic velocities at q
            dZ = np.exp(
                np.concatenate([Ph_Q - Ph_P, np.zeros((N, 1))], axis=1)
            )
            Zstar = np.einsum("ij,ij->i", Pi_Q, dZ)
            u_dual = -(dZ[:, :-1] - 1.0) / Zstar[:, None]
            eZ = np.exp(np.concatenate([Th_R - Th_Q, np.zeros((N, 1))], axis=1))
            Z = np.einsum("ij,ij->i", Pi_Q, eZ)
            v_primal = (eZ[:, :-1] - 1.0) / Z[:, None]
            dpi = gen.dpi_dtheta(Th_Q)
            head = Pi_Q[:, :-1]
            eye = np.eye(n - 1)
            J = eye[None] - dpi[:, :-1, :] / head[:, :, None] + dpi[:, -1:, :] / Pi_Q[:, -1:, None]
            u_primal = np.linalg.solve(J, u_dual[..., None])[..., 0]
            gmat = (
                head[:, :, None] * eye[None]
                - head[:, :, None] * head[:, None, :]
                - dpi[:, :-1, :]
            )
            inner = np.einsum("bij,bi,bj->b", gmat, u_primal, v_primal)
            # the proof's algebraic sign quantity
            Pi_QP = batch_two_point(Pi_P, Th_Q - Th_P)
            Pi_RQ = batch_two_point(Pi_Q, Th_R - Th_Q)
            signq = 1.0 - np.sum(Pi_QP * Pi_RQ / Pi_Q, axis=1)
            mask = np.abs(inner) > 1e-9
            ok &= bool(np.all(np.sign(gap[mask]) == np.sign(inner[mask])))
            ok &= bool(np.all(np.sign(inner[mask]) == np.sign(signq[mask])))
            checked += int(mask.sum())
    # constructed zero-gap triples have orthogonal geodesics
    gen = acceptance_zoo(3)["diversity"]
    zero_checked = 0
    for _ in range(40):
        p, r, a, b = rng.dirichlet(np.ones(3), size=4)
        f = lambda s: gd.pythagorean_sign(gen, p, (1 - s) * a + s * b, r).gap
        if f(0.0) * f(1.0) < 0:
            s_star = brentq(f, 0.0, 1.0, xtol=1e-14)
            res = gd.pythagorean_sign(gen, p, (1 - s_star) * a + s_star * b, r)
            ok &= abs(res.inner) < 1e-7
            zero_checked += 1
    ok &= zero_checked >= 5
    report(6, f"Pythagorean sign agreement on {checked} triples "
              f"(+{zero_checked} boundary)", ok)


def test_criterion_07_transport_optimality():
    rng = np.random.default_rng(77)
    ok = True
    zoo3 = list(acceptance_zoo(3).items())
    for k in range(1000):
        name, gen = zoo3[k % len(zoo3)]
        thetas = rng.normal(size=(7, 2)) * 1.2
        phis = [dual_coord(gen, th).phi for th in thetas]
        sample = CouplingSample(list(zip(thetas, phis)))
        if not is_c_cyclical_monotone(sample):
            ok = False
            break
    # brute-force assignment oracle on 50 random 5-point instances
    gen = acceptance_zoo(3)["gdw"]
    for _ in range(50):
        thetas = rng.normal(size=(5, 2)) * 1.5
        phis = np.array([dual_coord(gen, th).phi for th in thetas])
        perm, best = brute_force_optimal(thetas, phis)
        diag = T.coupling_cost(CouplingSample(list(zip(thetas, phis))))
        ok &= diag <= best + 1e-9
    report(7, "c-cyclical monotonicity (10^3 graphs) and assignment oracle", ok)


def test_criterion_08_displacement_interpolation():
    rng = np.random.default_rng(88)
    ok = True
    for name, gen in acceptance_zoo(3).items():
        fam = T.displacement_family(gen)
        p = rng.dirichlet(np.ones(3))
        for t in np.linspace(0.0, 1.0, 11):
            blend = fam.portfolio_at(t, p)
            generated = fam.generator_at(t).portfolio(p)
            ok &= np.max(np.abs(blend - generated)) < 1e-10
    # minimizing curves attain the cost; perturbations strictly exceed it
    from lgeo.simplex import psi

    th = rng.normal(size=2)
    ph = rng.normal(size=2)
    base = T.minimizing_curve(th, ph)
    base_val = T.action(base).value
    ok &= abs(base_val - psi(th - ph)) < 1e-6
    strictly_larger = 0
    for _ in range(100):
        bump = np.sin(np.pi * base.times)[:, None] * rng.normal(size=(1, 2)) * 0.08
        val = T.action(gd.Curve(base.times, base.points + bump, "primal")).value
        strictly_larger += val > base_val + 1e-10
    ok &= strictly_larger == 100
    # trajectories coincide with dual geodesic traces
    from lgeo.divergence import inverse_dual_coord

    gen = acceptance_zoo(3)["diversity"]
    fam = T.displacement_family(gen)
    for _ in range(5):
        th = rng.normal(size=2)
        traj = fam.trajectory(th, grid=65)
        q_pt = from_primal(inverse_dual_coord(gen, th))
        p_pt = from_primal(inverse_dual_coord(gen, fam.dual_map_at(1.0, th)))
        ref = gd.dual_geodesic(gen, q_pt, p_pt)
        ok &= polyline_hausdorff(traj.euclidean_trace(), ref.euclidean_trace()) < 1e-6
    report(8, "displacement interpolation: blends, action optimality, traces", ok)


def test_criterion_09_gaussian_example():
    rep = T.gaussian_example_check(
        a=[0.4, -0.2], b=[0.1, 0.3], sigma=[1.0, 1.5], lam=0.4,
        sample_size=100_000,
    )
    ok = rep.affine_error <= 1e-12
    ok &= rep.means_ok and rep.vars_ok and rep.cyclical_monotone
    rep2 = T.gaussian_example_check([0.0], [0.0], [1.0], 0.5, sample_size=100_000)
    ok &= rep2.affine_error <= 1e-12 and rep2.passed
    ok &= abs(rep2.map_scale - 0.5) < 1e-15
    report(9, "Gaussian product transport: affine map and pushforward marginals", ok)


def test_criterion_10_finance_application():
    rng = np.random.default_rng(1010)
    ok = True
    # Fernholz identity on random 100-step paths
    for name, gen in acceptance_zoo(4).items():
        W = rng.dirichlet(np.ones(4), size=100)
        mp = F.MarketPath(times=list(range(100)), weights=W)
        repb = F.fernholz_decompose(gen, mp)
        ok &= np.max(np.abs(repb.identity_residual)) < 1e-12
    # three-point comparison equals the Pythagorean gap
    gen3 = acceptance_zoo(3)["diversity"]
    for _ in range(25):
        W = rng.dirichlet(np.ones(3), size=3)
        mp = F.MarketPath(times=[0, 1, 2], weights=W)
        cmp_rep = F.rebalance_compare(gen3, mp, [0, 1], [0])
        ok &= abs(cmp_rep.difference - cmp_rep.pythagorean_gap) < 1e-12
    # region at the barycenter: permutation-symmetric, p and r on the boundary
    eq3 = G.equal_weighted(3)
    bary = np.full(3, 1 / 3)
    res = 60
    sample = gd.region_sample(eq3, bary, bary, grid_resolution=res)
    ok &= bool(sample.in_region[-2] and sample.in_region[-1])
    ok &= bool(sample.boundary[-2] and sample.boundary[-1])
    lattice = {tuple(k): bool(v) for k, v in
               zip(np.rint(sample.points[:-2] * res).astype(int), sample.in_region[:-2])}
    for perm in iter_permutations(range(3)):
        for key, flag in lattice.items():
            ok &= lattice[tuple(key[i] for i in perm)] == flag
    # resolution 200 within the time budget
    t0 = time.monotonic()
    gd.region_sample(eq3, bary, bary, grid_resolution=200)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    report(10, f"Fernholz identity, schedule comparison, region symmetry "
               f"(res 200 in {elapsed:.2f}s)", ok)
