"""Seeded workloads: the fixed operation list of one pass, and its checks.

A workload is built from ``--seed`` alone: the seed picks endpoint pairs,
region placements, the market path and the pointwise call list, while the
composition of the list (which operations, families and dimensions) is
fixed, so every seed costs about the same.  Curve and batch operations run
``lgeo.cli.main(argv)`` in process with outputs in a work directory;
pointwise operations call the library directly, since building the
command-line parser costs more than a single divergence evaluation.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks
from oracle import Family, primal

WHY = {
    "curves-closed": "geodesics and flows of dw, gdw and cw (closed-form dual inverse) at "
                     "n=3,5: scalar psi/f_value/inverse_dual loops, no Newton solver",
    "curves-newton": "dual geodesics and flows of mix generators (no closed-form inverse), two "
                     "pairs at each of n=3,10: damped Newton at every quadrature node",
    "batch": "region at resolution 400, backtest on 5000x50, transport-check at 1e5 samples: "
             "array paths, region neighbour loop, CSV ingest and emission",
    "pointwise": "single-point library calls at n=3,10,50 incl. near-diagonal pairs: per-call "
                 "coercion and validation dominate",
}

# per-operation metric name and unit, by operation kind
KIND_METRIC = {
    "primal_geodesic": ("primal_geodesic_ms", "ms"),
    "dual_geodesic": ("dual_geodesic_ms", "ms"),
    "primal_flow": ("primal_flow_ms", "ms"),
    "dual_flow": ("dual_flow_ms", "ms"),
    "region": ("region_ms", "ms"),
    "backtest": ("backtest_ms", "ms"),
    "transport_check": ("transport_check_ms", "ms"),
    "divergence": ("divergence_us", "us"),
    "pyth": ("pyth_us", "us"),
    "metric": ("metric_us", "us"),
    "christoffel": ("christoffel_us", "us"),
    "riem_gradient": ("riem_gradient_us", "us"),
    "c_transform": ("c_transform_us", "us"),
    "trajectory": ("trajectory_us", "us"),
    "compare": ("compare_us", "us"),
    "regularity": ("regularity_us", "us"),
}

# the operation kinds each workload exists to measure: op_ms_geomean combines
# their medians (the other kinds' medians are reported, not combined)
MEASURED_KINDS = {
    "curves-closed": ("primal_geodesic", "dual_geodesic", "primal_flow", "dual_flow"),
    "curves-newton": ("dual_geodesic", "dual_flow"),
    "batch": ("region", "backtest", "transport_check"),
    "pointwise": ("divergence", "pyth"),
}

REGION_RESOLUTION = 400
MARKET_SHAPE = (5000, 50)
MC_SAMPLES = 100_000
TRAJECTORY_GRID = 33
GEODESIC_STEPS = 128       # the CLI defaults, passed explicitly
FLOW_STEPS = 800
FLOW_HORIZON = 20.0
SEPARATIONS = 10.0 ** -np.arange(1, 9)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` verifies what it returned.

    ``check(result, accuracy)`` raises :class:`checks.CheckFailed` or returns
    a dict of accuracy figures; with ``accuracy`` false it may skip the
    costlier accuracy-only computations.
    """

    kind: str
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, bool], dict]
    outputs: tuple = ()


@dataclass
class Workload:
    name: str
    ops: list


# ---------------------------------------------------------------------------
# families and seeded inputs


def cw(n):
    w = np.linspace(1.0, 2.0, n)
    return Family("cw", n, w=tuple(float(v) for v in w / w.sum()))


def dw(n):
    return Family("dw", n, lam=0.5)


def gdw(n):
    return Family("gdw", n, lam=0.4, w=tuple(float(v) for v in np.linspace(0.5, 2.0, n)))


def mix(n):
    return Family("mix", n, parts=((0.4, cw(n)), (0.6, dw(n))))


def interior_point(rng, n, floor_share=0.25):
    """Dirichlet(4) point with every entry at least ``floor_share / n``."""
    while True:
        p = rng.dirichlet(np.full(n, 4.0))
        if p.min() >= floor_share / n:
            return p / p.sum()


def distinct_pair(rng, n, min_l1=0.3):
    q = interior_point(rng, n)
    while True:
        r = interior_point(rng, n)
        if np.abs(q - r).sum() >= min_l1:
            return q, r


def text(v) -> str:
    return ",".join(repr(float(x)) for x in v)


def as_point(v) -> np.ndarray:
    """The point lgeo builds from ``text(v)``: parsed, then normalized."""
    arr = np.array([float(x) for x in text(v).split(",")])
    return arr / arr.sum()


def cli_call(lgeo, argv):
    """Run one ``lgeo`` subcommand in process; return (exit status, output)."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        rc = lgeo.cli.main(argv)
    return rc, out.getvalue()


# ---------------------------------------------------------------------------
# curve workloads


def _curve_ops(lgeo, work: Path, fam: Family, q, r, kinds, start):
    ops = []
    qs, rs = text(q), text(r)
    qn, rn = as_point(q), as_point(r)
    for kind in kinds:
        shape, _, side = kind.partition("_")
        out = work / f"{start + len(ops):03d}-{fam.kind}{fam.n}-{kind}.csv"
        if side == "geodesic":
            argv = ["geodesic", "--gen", fam.spec(), f"--q={qs}", f"--r={rs}",
                    "--kind", shape, "--steps", str(GEODESIC_STEPS), "--out", str(out)]

            def check(res, acc, fam=fam, shape=shape, out=out):
                return checks.geodesic(fam, qn, rn, GEODESIC_STEPS + 1, shape, res[0], out,
                                       lgeo if acc else None)
        else:
            argv = ["flow", "--gen", fam.spec(), f"--q={qs}", f"--target={rs}",
                    "--kind", shape, "--horizon", repr(FLOW_HORIZON), "--steps", str(FLOW_STEPS),
                    "--out", str(out)]

            def check(res, acc, fam=fam, shape=shape, out=out):
                return checks.flow(fam, qn, rn, FLOW_HORIZON, FLOW_STEPS, shape, res[0], out)
        ops.append(Op(kind, fam.label, lambda argv=argv: cli_call(lgeo, argv), check, (out,)))
    return ops


def curves_closed(lgeo, rng, work):
    ops = []
    kinds = ("primal_geodesic", "dual_geodesic", "primal_flow", "dual_flow")
    for fam in families("curves-closed"):
        q, r = distinct_pair(rng, fam.n)
        ops += _curve_ops(lgeo, work, fam, q, r, kinds, len(ops))
    return Workload("curves-closed", ops)


def curves_newton(lgeo, rng, work):
    ops = []
    for fam in families("curves-newton"):
        for _ in range(2):
            q, r = distinct_pair(rng, fam.n)
            ops += _curve_ops(lgeo, work, fam, q, r, ("dual_geodesic", "dual_flow"), len(ops))
    return Workload("curves-newton", ops)


# ---------------------------------------------------------------------------
# batch workload


def write_market(path: Path, rng) -> np.ndarray:
    """Capitalization random walk, daily log-moves N(0, 1e-2); returns weights."""
    T, n = MARKET_SHAPE
    logx = rng.normal(0.0, 0.5, size=n) + np.cumsum(rng.normal(0.0, 1e-2, size=(T, n)), axis=0)
    X = np.exp(logx)
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"x_{i + 1}" for i in range(n)) + "\n")
        for t, row in enumerate(X):
            fh.write(f"{t}," + text(row) + "\n")
    return X / X.sum(axis=1, keepdims=True)


def batch(lgeo, rng, work):
    ops = []
    fam3, fam50 = families("batch")
    p, r = distinct_pair(rng, 3)
    pn, rn = as_point(p), as_point(r)
    out = work / "region.csv"
    argv = ["region", "--gen", fam3.spec(), f"--p={text(p)}", f"--r={text(r)}",
            "--resolution", str(REGION_RESOLUTION), "--out", str(out)]
    m = (REGION_RESOLUTION - 1) * (REGION_RESOLUTION - 2) // 2
    sub = rng.choice(m, size=24, replace=False)
    gen3 = fam3.build(lgeo)
    ops.append(Op("region", "dw n=3", lambda: cli_call(lgeo, argv),
                  lambda res, acc: checks.region(fam3, pn, rn, REGION_RESOLUTION, res[0], out,
                                                 lgeo, gen3, sub), (out,)))

    data, report = work / "market.csv", work / "backtest.csv"
    mu = write_market(data, rng)
    argv_b = ["backtest", "--gen", fam50.spec(), "--data", str(data), "--out", str(report)]
    ops.append(Op("backtest", f"dw n={MARKET_SHAPE[1]}", lambda: cli_call(lgeo, argv_b),
                  lambda res, acc: checks.backtest(fam50, mu, res[0], report), (report,)))

    a, b = rng.normal(0.0, 0.5, size=2), rng.normal(0.0, 0.5, size=2)
    sigma, lam = rng.uniform(0.5, 1.5, size=2), float(rng.uniform(0.3, 0.7))
    a, b, sigma = (np.array([float(x) for x in text(v).split(",")]) for v in (a, b, sigma))
    tc_out = work / "transport.csv"
    argv_t = ["transport-check", f"--a={text(a)}", f"--b={text(b)}", f"--sigma={text(sigma)}",
              "--lam", repr(lam), "--samples", str(MC_SAMPLES), "--out", str(tc_out)]
    ops.append(Op("transport_check", "gdw n=3", lambda: cli_call(lgeo, argv_t),
                  lambda res, acc: checks.transport(a, b, sigma, lam, MC_SAMPLES, res[0], res[1],
                                                    tc_out), (tc_out,)))
    return Workload("batch", ops)


# ---------------------------------------------------------------------------
# pointwise workload


def pointwise(lgeo, rng, work):
    L = lgeo
    ops = []
    for fam in families("pointwise"):
        n = fam.n
        gen = fam.build(L)
        lab = fam.label
        for s in SEPARATIONS:
            for _ in range(4):
                p = interior_point(rng, n)
                q = p * np.exp(s * rng.standard_normal(n))
                q, p = q / q.sum(), p
                ops.append(Op("divergence", f"{lab} sep={s:.0e}",
                              lambda g=gen, q=q, p=p: L.l_divergence(g, q, p).value,
                              lambda v, acc, f=fam, g=gen, q=q, p=p, s=s:
                              checks.divergence(f, as_point(q), as_point(p), v, L, g, s)))
        for _ in range(8):
            p, q, r = (interior_point(rng, n) for _ in range(3))
            ops.append(Op("pyth", lab, lambda g=gen, p=p, q=q, r=r:
                          L.pythagorean_sign(g, p, q, r),
                          lambda v, acc, f=fam, p=p, q=q, r=r: checks.pyth(f, p, q, r, v)))
        for _ in range(4):
            p, q = interior_point(rng, n), interior_point(rng, n)
            th = primal(p)
            ops.append(Op("metric", lab, lambda g=gen, th=th: L.metric_primal(g, th),
                          lambda v, acc, f=fam, th=th: checks.metric(f, th, v)))
            ops.append(Op("christoffel", lab, lambda g=gen, th=th: L.christoffel_primal(g, th),
                          lambda v, acc, f=fam, th=th: checks.christoffel(f, th, v)))
            ops.append(Op("riem_gradient", lab,
                          lambda g=gen, p=p, q=q: L.riem_gradient_dual(g, p, q),
                          lambda v, acc, f=fam, p=p, q=q: checks.riem_gradient(f, p, q, v)))
        if fam.kind == "mix":
            for _ in range(12):
                th0 = primal(interior_point(rng, n))
                ph = fam.dual(th0)
                x0 = th0 + 1e-3 * rng.standard_normal(n - 1)
                ops.append(Op("c_transform", lab,
                              lambda g=gen, ph=ph, x0=x0: L.c_transform(g, ph, x0=x0),
                              lambda v, acc, f=fam, th0=th0, ph=ph:
                              checks.c_transform(f, th0, ph, v)))
        for _ in range(2):
            th = primal(interior_point(rng, n))
            ops.append(Op("trajectory", lab,
                          lambda g=gen, th=th:
                          L.displacement_family(g).trajectory(th, grid=TRAJECTORY_GRID),
                          lambda v, acc, f=fam, th=th:
                          checks.trajectory(f, th, TRAJECTORY_GRID, v)))
            W = np.vstack([interior_point(rng, n) for _ in range(3)])
            path = L.MarketPath(times=[0, 1, 2], weights=W)
            ops.append(Op("compare", lab,
                          lambda g=gen, path=path: L.rebalance_compare(g, path, [0, 1], [0]),
                          lambda v, acc, f=fam, path=path: checks.compare(f, path.weights, v)))
        pts = np.vstack([interior_point(rng, n) for _ in range(10)])
        ops.append(Op("regularity", lab, lambda g=gen, pts=pts: L.check_regularity(g, pts),
                      lambda v, acc, pts=pts: checks.regularity(pts, v)))
    return Workload("pointwise", ops)


def families(name: str) -> list:
    """The generator families a workload uses, in operation-list order."""
    if name == "curves-closed":
        return [make(n) for n in (3, 5) for make in (dw, gdw, cw)]
    if name == "curves-newton":
        return [mix(3), mix(10)]
    if name == "batch":
        return [dw(3), dw(MARKET_SHAPE[1])]
    return [make(n) for n in (3, 10, 50) for make in (dw, gdw, cw, mix)]


BUILDERS = {
    "curves-closed": curves_closed,
    "curves-newton": curves_newton,
    "batch": batch,
    "pointwise": pointwise,
}


def build(name: str, lgeo, seed: int, work: Path) -> Workload:
    """The workload's operation list for ``seed``; inputs go under ``work``."""
    index = list(BUILDERS).index(name)
    rng = np.random.default_rng([seed, index])
    return BUILDERS[name](lgeo, rng, work)
