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

import datetime
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._table import write_table
from .divergence import _ratios, _t_euclid
from .generators import Generator
from .geodesics import _pyth
from .simplex import point_rows

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
_RESCAN = 256  # lines per block when a failed read is rescanned for its line


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
        if not np.all((W > 0) & (W < np.inf)):
            raise MarketDataError("market weights must be finite and strictly positive")
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
            return (1, datetime.date.fromisoformat(t).toordinal())
    return (0, float(t))


def _parse_stamp(text: str):
    try:
        v = float(text)
        return int(v) if v == int(v) else v
    except (ValueError, OverflowError):  # int(inf) overflows
        datetime.date.fromisoformat(text)  # validates; keep the string form
        return text


def _read_rows(source, fields: int, capitalizations: bool, skip: int):
    """Stamps and weights of the rows of ``source``, a path or a list of
    lines, checked as arrays; raises ValueError at the first failed check.

    One ``np.loadtxt`` pass reads every column, so that a row of another
    length is rejected; the converter of column 0 keeps each stamp's text,
    unquoted, in row order, and puts 0.0 in the table.
    """
    stamps = []

    def stamp(text):
        stamps.append(text)
        return 0.0

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # no data rows: an empty array
        table = np.loadtxt(source, delimiter=",", quotechar='"', comments=None, skiprows=skip,
                           converters={0: stamp}, ndmin=2)
    if len(table) and table.shape[1] != fields:
        raise ValueError(f"expected {fields} fields")
    times = [_parse_stamp(text.strip()) for text in stamps]
    vals = table[:, 1:]
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite value")
    if np.any(vals <= 0):
        raise ValueError("nonpositive weight")
    sums = vals.sum(axis=1)
    if capitalizations:
        return times, vals / sums[:, None]
    bad = np.abs(sums - 1.0) > _ROW_SUM_TOL
    if np.any(bad):
        raise ValueError(f"weights sum to {float(sums[bad][0])!r}, not 1")
    return times, vals


def ingest_csv(path) -> MarketPath:
    """Read a market path from CSV.

    Header ``t,mu_1,...,mu_n`` holds weights (rows must sum to one within
    1e-9); header ``t,x_1,...,x_n`` holds capitalizations, normalized to
    weights row by row.  Fields may be quoted with ``"``; blank lines are
    skipped.  A row with the wrong field count, a bad stamp, or a non-finite
    or nonpositive value (for weights, a bad row sum) is rejected with its
    line number, which a line-by-line rescan finds after a failed read.
    """
    with open(path, newline="") as fh:
        first = fh.readline()
    if not first:
        raise MarketDataError(f"{path}: empty file")
    header = first.rstrip("\r\n").split(",")
    cols = [c.strip().strip('"') for c in header]
    if len(cols) < 3 or cols[0] != "t":
        raise MarketDataError(f"{path}: header must be t,mu_1,... or t,x_1,...")
    if all(c == f"mu_{i + 1}" for i, c in enumerate(cols[1:])):
        capitalizations = False
    elif all(c == f"x_{i + 1}" for i, c in enumerate(cols[1:])):
        capitalizations = True
    else:
        raise MarketDataError(f"{path}: unrecognized header {header!r}")
    try:
        times, weights = _read_rows(path, len(cols), capitalizations, skip=1)
    except ValueError as exc:
        # rescan in blocks, and line by line only inside a failing one
        with open(path, newline="") as fh:
            fh.readline()
            start = 2
            while block := list(islice(fh, _RESCAN)):
                try:
                    _read_rows(block, len(cols), capitalizations, skip=0)
                except ValueError:
                    for lineno, line in enumerate(block, start):
                        try:
                            _read_rows([line], len(cols), capitalizations, skip=0)
                        except ValueError as bad:
                            raise MarketDataError(f"{path}:{lineno}: {bad}") from None
                start += len(block)
        raise MarketDataError(f"{path}: {exc}") from None
    try:
        return MarketPath(times=times, weights=weights)
    except MarketDataError as exc:
        raise MarketDataError(f"{path}: {exc}") from None


def write_csv(path, market_path: MarketPath) -> None:
    """Emit a market path as CSV (weights header, ``\\r\\n`` line ends, values
    as ``%.17g``); round-trips bitwise."""
    write_table(path, ["t"] + [f"mu_{i + 1}" for i in range(market_path.n)],
                [list(market_path.times), *market_path.weights.T], newline="\r\n")


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
        write_table(path, ["t", "log_v", "drift", "cum_divergence", "identity_residual"],
                    [list(self.times), self.log_v, self.drift, self.cumulative_divergence,
                     self.identity_residual], newline="\r\n")


def fernholz_decompose(gen: Generator, path: MarketPath) -> BacktestReport:
    """Split log relative value into generating-function drift plus divergence.

    Computes log V both through the one-step product recursion of the
    portfolio and through the decomposition, whose step divergences
    log(1 + grad phi . (q - p)) - (phi(q) - phi(p)) come from the gradient,
    not the portfolio; their difference is carried as a per-step residual
    and stays at rounding level for any interior path.
    """
    W = path.weights
    point_rows(W[0], gen=gen)  # the rows passed MarketPath; this checks their dimension
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
    _, ratio = _ratios(P1, P0, Pi)
    log_v = np.log(ratio).sum()
    div_sum = _t_euclid(gen, ratio, gen.log_gen(P1), gen.log_gen(P0)).sum()
    return float(log_v), float(div_sum)


def rebalance_compare(gen: Generator, path: MarketPath, schedule_a, schedule_b) -> CompareReport:
    """Compare two rebalancing schedules of the same generated portfolio.

    For the canonical three-point case ({0,1} vs {0} on a 3-row path) the
    value difference equals T(q|p) + T(r|q) - T(r|p); the report then also
    carries the angle-criterion evaluation of that gap.  For longer
    schedules the difference is reported as telescoped divergence sums with
    no sign law asserted.
    """
    three_point = (
        len(path) == 3
        and sorted(set(schedule_a) | {2}) == [0, 1, 2]
        and sorted(set(schedule_b) | {2}) == [0, 2]
    )
    # the rows passed MarketPath: this checks their dimension (and the three
    # points of the angle criterion as pythagorean_sign does)
    P = point_rows(*path.weights[: 3 if three_point else 1], gen=gen)
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
    if three_point:
        pyth = _pyth(gen, P)
        report.pythagorean_gap = pyth.gap
        report.angle_deg = pyth.angle_deg
    return report
