"""Market-path ingestion and volatility-harvesting decomposition.

A functionally generated portfolio rebalanced along a market-weight path
mu(0), mu(1), ... has relative value (vs. the market portfolio) satisfying

    V(t+1) / V(t) = sum_i pi_i(mu(t)) mu_i(t+1) / mu_i(t),

and its log decomposes exactly into a generating-function drift plus the
accumulated divergence:

    log V(t) = phi(mu(t)) - phi(mu(0)) + sum_{s<t} T(mu(s+1) | mu(s)).

The decomposition is an identity, so the module recomputes log V both ways
and reports the residual, which must sit at rounding level.  Comparing two
rebalancing schedules over three points reduces the value difference to
T(q|p) + T(r|q) - T(r|p), the quantity whose sign the Riemannian angle
criterion classifies.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .divergence import _t_euclid
from .generators import Generator
from .geodesics import pythagorean_sign

__all__ = [
    "MarketPath",
    "BacktestReport",
    "CompareReport",
    "ingest_csv",
    "write_csv",
    "fernholz_decompose",
    "rebalance_compare",
]

_ROW_SUM_TOL = 1e-9


class MarketDataError(ValueError):
    """Malformed market-data input."""


@dataclass
class MarketPath:
    """A time series of market weight vectors.

    ``times`` are the raw stamps (ints or ISO dates as strings); rows of
    ``weights`` are strictly positive and normalized to sum to one.
    """

    times: list
    weights: np.ndarray

    def __post_init__(self):
        W = np.asarray(self.weights, dtype=float)
        if W.ndim != 2 or W.shape[0] < 2:
            raise MarketDataError("a market path needs at least two rows")
        if np.any(W <= 0):
            raise MarketDataError("market weights must be strictly positive")
        sums = W.sum(axis=1)
        bad = np.abs(sums - 1.0) > _ROW_SUM_TOL
        if np.any(bad):
            row = int(np.argmax(bad))
            raise MarketDataError(
                f"row {row} weights sum to {float(sums[row])!r}, outside tolerance {_ROW_SUM_TOL}"
            )
        # renormalize, but leave rows already normalized to rounding level
        # untouched so that emit/ingest round trips are bitwise stable
        off = np.abs(sums - 1.0) > 1e-14
        W = W.copy()
        W[off] /= sums[off, None]
        self.weights = W
        if len(self.times) != W.shape[0]:
            raise MarketDataError("one time stamp per row required")
        keys = [_time_key(t) for t in self.times]
        if any(b <= a for a, b in zip(keys, keys[1:])):
            raise MarketDataError("time stamps must be strictly increasing")

    def __len__(self):
        return self.weights.shape[0]

    @property
    def n(self) -> int:
        return self.weights.shape[1]


def _time_key(t):
    if isinstance(t, str):
        try:
            return (0, float(t))
        except ValueError:
            import datetime

            return (1, datetime.date.fromisoformat(t).toordinal())
    return (0, float(t))


def _parse_stamp(text: str):
    try:
        v = float(text)
        return int(v) if v == int(v) else v
    except ValueError:
        import datetime

        datetime.date.fromisoformat(text)  # validates; keep the string form
        return text


def ingest_csv(path) -> MarketPath:
    """Read a market path from CSV.

    Header ``t,mu_1,...,mu_n`` holds weights (rows must sum to one within
    1e-9); header ``t,x_1,...,x_n`` holds capitalizations, normalized to
    weights row by row.  Malformed rows are rejected with their line number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MarketDataError(f"{path}: empty file") from None
        cols = [c.strip() for c in header]
        if len(cols) < 3 or cols[0] != "t":
            raise MarketDataError(f"{path}: header must be t,mu_1,... or t,x_1,...")
        if all(c == f"mu_{i + 1}" for i, c in enumerate(cols[1:])):
            capitalizations = False
        elif all(c == f"x_{i + 1}" for i, c in enumerate(cols[1:])):
            capitalizations = True
        else:
            raise MarketDataError(f"{path}: unrecognized header {header!r}")
        times = []
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(cols):
                raise MarketDataError(f"{path}:{lineno}: expected {len(cols)} fields")
            try:
                stamp = _parse_stamp(row[0].strip())
                vals = np.array([float(v) for v in row[1:]])
            except ValueError as exc:
                raise MarketDataError(f"{path}:{lineno}: {exc}") from None
            if np.any(vals <= 0):
                raise MarketDataError(f"{path}:{lineno}: nonpositive weight")
            if capitalizations:
                vals = vals / vals.sum()
            elif abs(vals.sum() - 1.0) > _ROW_SUM_TOL:
                raise MarketDataError(
                    f"{path}:{lineno}: weights sum to {float(vals.sum())!r}, not 1"
                )
            times.append(stamp)
            rows.append(vals)
    try:
        return MarketPath(times=times, weights=np.array(rows))
    except MarketDataError as exc:
        raise MarketDataError(f"{path}: {exc}") from None


def write_csv(path, market_path: MarketPath) -> None:
    """Emit a market path as CSV (weights header); round-trips bitwise."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"mu_{i + 1}" for i in range(market_path.n)])
        for stamp, row in zip(market_path.times, market_path.weights):
            w.writerow([stamp] + [repr(float(v)) for v in row])


# ---------------------------------------------------------------------------
# decomposition

@dataclass
class BacktestReport:
    """Per-step decomposition of the relative value of a rebalanced portfolio."""

    times: list
    log_v: np.ndarray              # relative log value by the product recursion
    drift: np.ndarray              # phi(mu(t)) - phi(mu(0))
    step_divergence: np.ndarray    # T(mu(s+1) | mu(s)), length len-1
    identity_residual: np.ndarray  # log_v - (drift + cumulative divergence)

    @property
    def cumulative_divergence(self) -> np.ndarray:
        return np.concatenate([[0.0], np.cumsum(self.step_divergence)])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "log_v", "drift", "cum_divergence", "identity_residual"])
            cum = self.cumulative_divergence
            for i, stamp in enumerate(self.times):
                w.writerow([stamp, f"{self.log_v[i]:.17g}", f"{self.drift[i]:.17g}",
                            f"{cum[i]:.17g}", f"{self.identity_residual[i]:.17g}"])


def fernholz_decompose(gen: Generator, path: MarketPath) -> BacktestReport:
    """Split log relative value into generating-function drift plus divergence.

    Computes log V both through the one-step product recursion of the
    portfolio and through the decomposition, whose step divergences
    log(1 + grad phi . (q - p)) - (phi(q) - phi(p)) come from the gradient,
    not the portfolio; their difference is carried as a per-step residual
    and stays at rounding level for any interior path.
    """
    W = path.weights
    phis = gen.log_gen(W)
    ratios = np.log(np.sum(gen.portfolio(W[:-1]) * (W[1:] / W[:-1]), axis=1))
    divs = np.log1p(np.sum(gen.euclid_grad(W[:-1]) * (W[1:] - W[:-1]), axis=1)) - np.diff(phis)
    log_v = np.concatenate([[0.0], np.cumsum(ratios)])
    drift = phis - phis[0]
    residual = log_v - (drift + np.concatenate([[0.0], np.cumsum(divs)]))
    return BacktestReport(
        times=list(path.times),
        log_v=log_v,
        drift=drift,
        step_divergence=divs,
        identity_residual=residual,
    )


# ---------------------------------------------------------------------------
# rebalancing schedules

@dataclass
class CompareReport:
    """Relative log value of two rebalancing schedules over the same path."""

    schedule_a: list
    schedule_b: list
    log_v_a: float
    log_v_b: float
    difference: float
    divergence_sum_a: float
    divergence_sum_b: float
    pythagorean_gap: float | None = None
    angle_deg: float | None = None


def _schedule_log_value(gen: Generator, path: MarketPath, schedule) -> tuple:
    """Buy-and-hold between rebalance times; returns (log V, divergence sum).

    Holding fixed weights from time a to b multiplies relative value by
    sum_i pi_i(mu(a)) mu_i(b) / mu_i(a) regardless of intermediate steps,
    so only the rebalance times (plus the terminal time) matter.
    """
    W = path.weights
    last = len(path) - 1
    stops = list(schedule)
    if stops != sorted(set(stops)):
        raise ValueError("schedule must be strictly increasing time indices")
    if not stops or stops[0] != 0:
        raise ValueError("schedule must contain the initial time index 0")
    if stops[-1] > last:
        raise ValueError("schedule indices outside the path")
    if stops[-1] != last:
        stops.append(last)
    # the rows were validated by MarketPath; all holding periods at once
    P0, P1 = W[stops[:-1]], W[stops[1:]]
    Pi = gen.portfolio(P0)
    log_v = np.log((Pi * (P1 / P0)).sum(axis=-1)).sum()
    div_sum = _t_euclid(gen, P1, P0, Pi, gen.log_gen(P1), gen.log_gen(P0)).sum()
    return float(log_v), float(div_sum)


def rebalance_compare(gen: Generator, path: MarketPath, schedule_a, schedule_b) -> CompareReport:
    """Compare two rebalancing schedules of the same generated portfolio.

    For the canonical three-point case ({0,1} vs {0} on a 3-row path) the
    value difference equals T(q|p) + T(r|q) - T(r|p); the report then also
    carries the angle-criterion evaluation of that gap.  For longer
    schedules the difference is reported as telescoped divergence sums with
    no sign law asserted.
    """
    la, da = _schedule_log_value(gen, path, schedule_a)
    lb, db = _schedule_log_value(gen, path, schedule_b)
    report = CompareReport(
        schedule_a=list(schedule_a),
        schedule_b=list(schedule_b),
        log_v_a=la,
        log_v_b=lb,
        difference=la - lb,
        divergence_sum_a=da,
        divergence_sum_b=db,
    )
    three_point = (
        len(path) == 3
        and sorted(set(schedule_a) | {2}) == [0, 1, 2]
        and sorted(set(schedule_b) | {2}) == [0, 2]
    )
    if three_point:
        pyth = pythagorean_sign(gen, path.weights[0], path.weights[1], path.weights[2])
        report.pythagorean_gap = pyth.gap
        report.angle_deg = pyth.angle_deg
    return report
