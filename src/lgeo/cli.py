"""Command-line surface: divergences, geodesics, regions, and backtests.

Generators are specified either as compact strings

    equal               equal-weighted, in any dimension
    eqN                 equal-weighted on N assets
    market              the market portfolio (identity map)
    cw:p1,p2,...        constant-weighted
    dw:lambda           diversity-weighted
    gdw:lambda:w1,...   weighted diversity
    mix:c1*spec+c2*spec convex combination (one level; nest via --config)

or as a JSON config document (the record of ``to_config``) via ``--config``;
both are built from that record.  Exit codes: 0 success, 1 usage error (bad
flags, unreadable spec or config), 2 numerical or data failure.

``main`` builds its argument parser at its first call and reuses it for
every later call in the process; each subcommand's ``_cmd_*`` function is
looked up by name when it runs, so a rebinding of it takes effect.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from ._table import write_table
from .divergence import ConvergenceError, l_divergence
from .finance import MarketDataError, fernholz_decompose, ingest_csv, rebalance_compare
from .generators import (
    Generator,
    NonRegularError,
    check_regularity,
    generator_from_config,
)
from .geodesics import (
    DualRangeError,
    GeodesicBlowupError,
    RegionSample,
    dual_geodesic,
    dual_flow,
    primal_flow,
    primal_geodesic,
    pythagorean_sign,
    region_sample,
)
from .simplex import SimplexPoint, from_primal_many
from .transport import displacement_family, gaussian_example_check, market_interpolation

__all__ = ["main", "parse_generator_spec", "emit_region"]

_SQRT3_2 = np.sqrt(3.0) / 2.0
_SVG_SIZE = 640  # width and height of an emitted region figure, in pixels


class SpecError(ValueError):
    """Unparseable generator spec string or malformed config record."""


def _spec_record(spec: str) -> dict:
    """The config record, as ``to_config`` writes it, that a spec names."""
    spec = spec.strip()
    head, _, rest = spec.partition(":")
    if spec in ("market", "equal"):
        return {"kind": spec}
    if spec.startswith("eq"):
        n = int(spec[2:])
        if n < 2:
            raise ValueError("equal-weight spec needs N >= 2")
        return {"kind": "constant", "weights": [1.0 / n] * n}
    if head == "cw":
        return {"kind": "constant", "weights": [float(v) for v in rest.split(",")]}
    if head == "dw":
        return {"kind": "diversity", "lam": float(rest)}
    if head == "gdw":
        lam_text, _, w_text = rest.partition(":")
        return {"kind": "generalized_diversity", "lam": float(lam_text),
                "weights": [float(v) for v in w_text.split(",")]}
    if head == "mix":
        terms = [term.partition("*") for term in rest.split("+")]
        return {"kind": "combination", "coeffs": [float(c) for c, _, _ in terms],
                "components": [_spec_record(sub) for _, _, sub in terms]}
    raise ValueError("unknown spec form")


def parse_generator_spec(spec: str) -> Generator:
    """The generator that a spec string names, built from its config record."""
    try:
        return generator_from_config(_spec_record(spec))
    except ValueError as exc:
        raise SpecError(f"bad generator spec {spec!r}: {exc}") from None


def _generator_from_args(args) -> Generator:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            try:
                return generator_from_config(json.load(fh))
            except ValueError as exc:
                raise SpecError(f"bad generator config {args.config}: {exc}") from None
    if getattr(args, "gen", None):
        return parse_generator_spec(args.gen)
    raise SpecError("a generator is required (--gen or --config)")


def _point(text: str) -> SimplexPoint:
    return SimplexPoint([float(v) for v in text.split(",")])


def _vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _int_at_least(minimum: int):
    """Argument type: an integer of at least ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _horizon(text: str) -> float:
    """A flow's time horizon; finite and positive."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


# ---------------------------------------------------------------------------
# region emission

def _simplex_to_xy(Q: np.ndarray) -> np.ndarray:
    x = Q[:, 1] + 0.5 * Q[:, 2]
    y = _SQRT3_2 * Q[:, 2]
    return np.column_stack([x, y])


def emit_region(gen: Generator, p, r, resolution: int, out_path, fmt: str = "csv") -> RegionSample:
    """Sample the rebalancing region and write it as standalone SVG or as CSV:
    ``q1,q2,q3,gap,in_region`` rows ending in ``\\n``, floats as ``%.17g``."""
    sample = region_sample(gen, p, r, grid_resolution=resolution)
    if fmt == "csv":
        write_table(out_path, ["q1", "q2", "q3", "gap", "in_region"],
                    [*sample.points.T, sample.gap, sample.in_region])
        return sample
    if fmt != "svg":
        raise ValueError(f"unknown region format {fmt!r}")

    pad = 0.08 * _SVG_SIZE
    span = _SVG_SIZE - 2 * pad
    xy = _simplex_to_xy(sample.points)
    px, py = pad + xy[:, 0] * span, _SVG_SIZE - pad - xy[:, 1] * span
    corners = _simplex_to_xy(np.eye(3))
    cx, cy = pad + corners[:, 0] * span, _SVG_SIZE - pad - corners[:, 1] * span
    dot = max(1.0, 0.45 * span / resolution)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SVG_SIZE}" height="{_SVG_SIZE}" viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<polygon points="{cx[0]:.2f},{cy[0]:.2f} {cx[1]:.2f},{cy[1]:.2f} '
        f'{cx[2]:.2f},{cy[2]:.2f}" fill="none" stroke="black" stroke-width="1.5"/>',
    ]
    for x, y, flag in zip(px, py, sample.in_region):
        if flag:
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{dot:.2f}" fill="#7fb2d9"/>')
    if sample.boundary_polyline.size:
        bxy = _simplex_to_xy(sample.boundary_polyline)
        bx, by = pad + bxy[:, 0] * span, _SVG_SIZE - pad - bxy[:, 1] * span
        for x, y in zip(bx, by):
            lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{dot * 0.8:.2f}" fill="#c44e52"/>')
    marks = _simplex_to_xy(np.vstack([np.asarray(p, dtype=float), np.asarray(r, dtype=float)]))
    mx, my = pad + marks[:, 0] * span, _SVG_SIZE - pad - marks[:, 1] * span
    for (x, y, label) in ((mx[0], my[0], "p"), (mx[1], my[1], "r")):
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="black"/>')
        lines.append(f'<text x="{x + 6:.2f}" y="{y - 6:.2f}" font-size="16">{label}</text>')
    lines.append("</svg>")
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return sample


# ---------------------------------------------------------------------------
# subcommands

def _cmd_divergence(args) -> int:
    gen = _generator_from_args(args)
    val = l_divergence(gen, _point(args.q), _point(args.p)).value
    print(f"{val:.6f}")
    return 0


def _cmd_geodesic(args) -> int:
    gen = _generator_from_args(args)
    if args.kind == "primal":
        curve = primal_geodesic(gen, _point(args.q), _point(args.r), grid=args.steps + 1)
    else:
        curve = dual_geodesic(gen, _point(args.q), _point(args.r), grid=args.steps + 1)
    curve.to_csv(args.out)
    print(f"wrote {args.kind} geodesic ({len(curve)} samples) to {args.out}")
    return 0


def _cmd_flow(args) -> int:
    gen = _generator_from_args(args)
    flow = primal_flow if args.kind == "primal" else dual_flow
    curve = flow(gen, _point(args.q), _point(args.target),
                 horizon=args.horizon, steps=args.steps)
    curve.to_csv(args.out)
    print(f"wrote {args.kind} flow ({len(curve)} samples) to {args.out}")
    return 0


def _cmd_pyth(args) -> int:
    gen = _generator_from_args(args)
    res = pythagorean_sign(gen, _point(args.p), _point(args.q), _point(args.r))
    print(f"gap {res.gap:.12g}")
    print(f"inner {res.inner:.12g}")
    print(f"angle_deg {res.angle_deg:.12g}")
    return 0


def _cmd_region(args) -> int:
    gen = _generator_from_args(args)
    sample = emit_region(gen, _point(args.p).p, _point(args.r).p,
                         args.resolution, args.out, fmt=args.format)
    share = float(np.mean(sample.in_region))
    print(f"wrote region ({sample.points.shape[0]} points, {share:.1%} inside) to {args.out}")
    return 0


def _cmd_backtest(args) -> int:
    gen = _generator_from_args(args)
    path = ingest_csv(args.data)
    report = fernholz_decompose(gen, path)
    if args.out:
        report.to_csv(args.out)
        print(f"wrote backtest report to {args.out}")
    print(f"final log relative value {report.log_v[-1]:.12g}")
    print(f"max identity residual {np.max(np.abs(report.identity_residual)):.3g}")
    return 0


def _cmd_compare(args) -> int:
    gen = _generator_from_args(args)
    path = ingest_csv(args.data)
    sched_a = [int(v) for v in args.schedule_a.split(",")]
    sched_b = [int(v) for v in args.schedule_b.split(",")]
    report = rebalance_compare(gen, path, sched_a, sched_b)
    print(f"log_v_a {report.log_v_a:.12g}")
    print(f"log_v_b {report.log_v_b:.12g}")
    print(f"difference {report.difference:.12g}")
    if report.pythagorean_gap is not None:
        print(f"pythagorean_gap {report.pythagorean_gap:.12g}")
        print(f"angle_deg {report.angle_deg:.12g}")
    return 0


def _cmd_interpolate(args) -> int:
    gen = _generator_from_args(args)
    family = displacement_family(gen) if args.kind == "displacement" else market_interpolation(gen)
    theta = _vector(args.theta)
    curve = family.trajectory(theta, grid=args.steps + 1)
    if args.out:
        curve.to_csv(args.out)
        print(f"wrote {args.kind} trajectory to {args.out}")
    else:
        terminal = curve.points[-1]
        print("terminal " + ",".join(f"{v:.12g}" for v in terminal))
    return 0


def _cmd_transport_check(args) -> int:
    report = gaussian_example_check(
        _vector(args.a), _vector(args.b), _vector(args.sigma), args.lam,
        sample_size=args.samples, seed=args.seed,
    )
    if args.out:
        report.to_csv(args.out)
    print(f"map scale {report.map_scale:.12g}")
    print(f"affine error {report.affine_error:.3g}")
    print(f"means ok {report.means_ok}; vars ok {report.vars_ok}; "
          f"cyclically monotone {report.cyclical_monotone}")
    if not report.passed:
        print("transport check FAILED", file=sys.stderr)
        return 2
    print("transport check passed")
    return 0


def _cmd_regularity(args) -> int:
    gen = _generator_from_args(args)
    rng = np.random.default_rng(args.seed)
    pts = from_primal_many(rng.normal(size=(args.points, args.n - 1)))
    report = check_regularity(gen, pts)
    print(report.summary())
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lgeo",
        description="Geometry of exponentially concave generators on the simplex.",
    )
    parser.add_argument("--version", action="version", version=f"lgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--gen", help="generator spec string")
        p.add_argument("--config", help="path to a generator JSON config")
        return p

    p = add("divergence", help="print T(q|p)")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)

    p = add("geodesic", help="write a geodesic as CSV")
    p.add_argument("--q", required=True)
    p.add_argument("--r", required=True)
    p.add_argument("--kind", choices=["primal", "dual"], default="primal")
    p.add_argument("--steps", type=_int_at_least(1), default=128)
    p.add_argument("--out", required=True)

    p = add("flow", help="write a gradient flow as CSV")
    p.add_argument("--q", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--kind", choices=["primal", "dual"], default="primal")
    p.add_argument("--horizon", type=_horizon, default=20.0)
    p.add_argument("--steps", type=_int_at_least(1), default=800)
    p.add_argument("--out", required=True)

    p = add("pyth", help="three-point angle criterion")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--r", required=True)

    p = add("region", help="emit the rebalancing region (n=3)")
    p.add_argument("--p", required=True)
    p.add_argument("--r", required=True)
    # region_sample needs at least 3 subdivisions for an interior point
    p.add_argument("--resolution", type=_int_at_least(3), default=120)
    p.add_argument("--format", choices=["csv", "svg"], default="csv")
    p.add_argument("--out", required=True)

    p = add("backtest", help="Fernholz decomposition of a market path")
    p.add_argument("--data", required=True)
    p.add_argument("--out")

    p = add("compare", help="compare two rebalancing schedules")
    p.add_argument("--data", required=True)
    p.add_argument("--schedule-a", required=True)
    p.add_argument("--schedule-b", required=True)

    p = add("interpolate", help="displacement/market interpolation")
    p.add_argument("--theta", required=True)
    p.add_argument("--kind", choices=["displacement", "market"], default="displacement")
    p.add_argument("--steps", type=_int_at_least(1), default=128)
    p.add_argument("--out")

    p = sub.add_parser("transport-check", help="Gaussian transport audit")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--lam", type=float, required=True)
    # the sample variance divides by samples - 1
    p.add_argument("--samples", type=_int_at_least(2), default=100_000)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0x5EED, help="seed of the Monte Carlo sample")

    p = add("regularity", help="audit generator regularity")
    p.add_argument("--n", type=_int_at_least(2), default=3)
    p.add_argument("--points", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=int, default=0, help="seed of the audited points")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    # by name, not bound at parser build: the one parser outlives rebindings
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except (SpecError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonRegularError, ConvergenceError, DualRangeError, GeodesicBlowupError,
            MarketDataError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
