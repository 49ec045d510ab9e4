"""Every public callable of ``lgeo`` in one table, with valid arguments.

The table lists each callable that ``lgeo`` exports (its names without a
leading underscore; the package has no ``__all__``) with a builder of valid
arguments.  A callable that is neither in the table nor exempted by name,
with a reason, fails the completeness test, so a new export must be added
here.  Each row that takes points or coordinates also carries a
wrong-dimension variant, which must raise ``ValueError`` naming both
dimensions: points and coordinates enter through ``simplex.point_rows`` and
``simplex.coord_rows``, and numpy's broadcast message must never reach the
caller.  Such a row makes exactly one call of those two functions, so that
library code checks nothing twice; some rows carry further bad inputs, each
rejected by name.
"""

import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pytest

import lgeo
from lgeo import simplex
from lgeo.simplex import to_primal_many

EXEMPT = {
    "NonRegularError": "an exception type, raised by the library, not an entry point",
    "ingest_csv": "reads a market file (test_finance); its rows are checked by MarketPath, "
                  "a row of the table",
}

# a generator of fixed dimension 3, and three points with their primal and
# dual coordinates at n = 3 and at n = 4 (the wrong dimension for CW)
CW = lgeo.ConstantWeighted([0.2, 0.3, 0.5])
P = {n: np.random.default_rng(n).dirichlet(np.ones(n), 3) for n in (3, 4)}
TH = {n: to_primal_many(P[n]) for n in (3, 4)}
PH = {3: np.array([lgeo.dual_coord(CW, th).phi for th in TH[3]]), 4: TH[4]}

GEN_DIM = (r"^dimension mismatch: generator cw\[0\.2,0\.3,0\.5\] of dimension 3, "
           r"points of dimension 4$")
SHAPES = r"^dimension mismatch: coordinates of shapes \[\(2,\), \(3,\)\]$"
EMPTY = r"^coordinate needs at least 1 entry$"


@dataclass
class Row:
    """Arguments of a valid call and, for a callable that takes points or
    coordinates, those of a call with a wrong dimension and the message it
    must raise."""

    args: Callable[[], tuple]
    kwargs: dict = field(default_factory=dict)
    wrong: Callable[[], tuple] | None = None
    message: str | None = None
    bad: tuple = ()  # (arguments, message) of further inputs that raise ValueError


def gen_row(args: Callable[[int], tuple], bad: tuple = (), **kwargs) -> Row:
    """A row of a callable on ``CW``, whose wrong call takes the points or
    coordinates of dimension 4."""
    return Row(lambda: args(3), kwargs, lambda: args(4), GEN_DIM, bad)


def record(result: Callable[[], object]) -> Row:
    """A row of a result record, rebuilt from the fields of a result."""
    return Row(lambda: tuple(vars(result()).values()))


def tangent(n: int, k: int = 0) -> np.ndarray:
    """A tangent vector of n entries summing to zero."""
    return np.roll(np.concatenate([[1.0, -1.0], np.zeros(n - 2)]), k)


def path(n: int) -> lgeo.MarketPath:
    return lgeo.MarketPath(times=[0, 1, 2], weights=P[n])


CURVE = lgeo.minimizing_curve(TH[3][0], TH[3][1], grid=9)
SAMPLE = lgeo.CouplingSample(list(zip(TH[3], PH[3])))
GAUSS = ([0.3, -0.2], [0.1, 0.4], [0.8, 1.2])

TABLE = {
    # simplex
    "SimplexPoint": Row(lambda: (P[3][0],)),
    "PrimalCoord": Row(lambda: (TH[3][0],),
                       bad=((lambda: ([],), r"^theta needs at least 1 entry$"),)),
    "DualCoord": Row(lambda: (PH[3][0], CW),
                     bad=((lambda: ([], CW), r"^phi needs at least 1 entry$"),)),
    "CostValue": record(lambda: lgeo.cost(TH[3][0], TH[3][1])),
    "psi": Row(lambda: (TH[3][0],), bad=(
        (lambda: ([np.nan, 0.0],), r"^coordinate must have finite entries$"),
        (lambda: ([],), EMPTY),
        (lambda: (TH[3],), r"^coordinate must be a 1-d vector, got shape \(3, 2\)$"))),
    "to_primal": Row(lambda: (P[3][0],)),
    "from_primal": Row(lambda: (TH[3][0],), bad=((lambda: ([],), EMPTY),)),
    "cost": Row(lambda: (TH[3][0], TH[3][1]), wrong=lambda: (TH[3][0], TH[4][0]),
                message=SHAPES, bad=((lambda: ([], []), EMPTY),)),
    # generators
    "Generator": Row(lambda: ()),
    "ZeroGenerator": Row(lambda: ()),
    "UniformCrossEntropy": Row(lambda: ()),
    "ConstantWeighted": Row(lambda: (P[3][0],)),
    "DiversityWeighted": Row(lambda: (0.5,)),
    "GeneralizedDiversityWeighted": Row(lambda: ([1.0, 2.0, 3.0], 0.5)),
    "ConvexCombination": Row(lambda: ([CW, lgeo.DiversityWeighted(0.5)], [0.4, 0.6])),
    "CustomGenerator": Row(lambda: (lambda p: np.mean(np.log(p)),)),
    "Portfolio": Row(lambda: (P[3][0],)),
    "equal_weighted": Row(lambda: (3,)),
    "portfolio": gen_row(lambda n: (CW, P[n][0])),
    "dual_coord": gen_row(lambda n: (CW, TH[n][0])),
    "dual_euclidean": gen_row(lambda n: (CW, P[n][0])),
    "jacobian_dual": gen_row(lambda n: (CW, TH[n][0])),
    "weights_from_gaussian": Row(lambda: (GAUSS[0], GAUSS[1], 0.5),
                                 wrong=lambda: (GAUSS[0], [0.1, 0.4, 0.0], 0.5),
                                 message=SHAPES),
    "check_regularity": gen_row(lambda n: (CW, P[n])),
    "generator_from_config": Row(lambda: (CW.to_config(),)),
    "generator_from_json": Row(lambda: (lgeo.generator_to_json(CW),)),
    "generator_to_json": Row(lambda: (CW,)),
    # divergence
    "DivergenceValue": record(lambda: lgeo.l_divergence(CW, P[3][1], P[3][0])),
    "CouplingSample": Row(lambda: (list(zip(TH[3], PH[3])),),
                          wrong=lambda: ([(TH[3][0], TH[4][0])],),
                          message=r"^coupling sample entries must be 1-d of one length, "
                                  r"not \{\(\d,\), \(\d,\)\}$"),
    "l_divergence": gen_row(lambda n: (CW, P[n][1], P[n][0])),
    "l_divergence_primal": gen_row(lambda n: (CW, TH[n][1], TH[n][0]),
                                   bad=((lambda: (CW, [], []), EMPTY),)),
    "l_divergence_dual": gen_row(lambda n: (CW, PH[n][1], PH[n][0])),
    "bregman": gen_row(lambda n: (CW, P[n][1], P[n][0])),
    "f_value": gen_row(lambda n: (CW, TH[n]), bad=((lambda: (CW, []), EMPTY),)),
    "c_transform": gen_row(lambda n: (CW, PH[n][0])),
    "inverse_dual_coord": gen_row(lambda n: (CW, PH[n])),
    "c_divergence": gen_row(lambda n: (CW, P[n][1], P[n][0])),
    "c_divergence_dual": gen_row(lambda n: (CW, P[n][1], P[n][0])),
    "optimal_assignment": Row(lambda: (TH[3], PH[3]), wrong=lambda: (TH[3], TH[4]),
                              message=r"^dimension mismatch: coordinates of shapes "
                                      r"\[\(3, 2\), \(3, 3\)\]$"),
    "is_c_cyclical_monotone": Row(lambda: (SAMPLE,)),
    "is_mcm": Row(lambda: (CW.portfolio, [P[3][0], P[3][1], P[3][0]]),
                  wrong=lambda: (CW.portfolio, [P[3][0], P[4][1], P[3][0]]),
                  message=r"^dimension mismatch: points of sizes \[3, 4, 3\]$"),
    "pyth_transport_gap": gen_row(lambda n: (CW, *P[n])),
    # geometry
    "MetricMatrix": record(lambda: lgeo.metric_primal(CW, TH[3][0])),
    "ChristoffelTensor": record(lambda: lgeo.christoffel_primal(CW, TH[3][0])),
    "PiQuantities": record(lambda: lgeo.pi_quantities(CW, TH[3][0], TH[3][1])),
    "pi_quantities": gen_row(lambda n: (CW, TH[n][0], TH[n][1])),
    "pi_quantities_dual": gen_row(lambda n: (CW, PH[n][0], PH[n][1])),
    "metric_euclidean": gen_row(lambda n: (CW, P[n][0], tangent(n), tangent(n, 1))),
    "metric_primal": gen_row(lambda n: (CW, TH[n][0]), bad=((lambda: (CW, []), EMPTY),)),
    "metric_dual": gen_row(lambda n: (CW, PH[n][0])),
    "christoffel_primal": gen_row(lambda n: (CW, TH[n][0])),
    "christoffel_dual": gen_row(lambda n: (CW, PH[n][0])),
    "rc_curvature": gen_row(lambda n: (CW, TH[n][0])),
    "ricci": gen_row(lambda n: (CW, TH[n][0])),
    "sectional_curvature": gen_row(lambda n: (CW, TH[n][0], [1.0, 0.0], [0.0, 1.0])),
    "riem_gradient_primal": gen_row(lambda n: (CW, P[n][1], P[n][0])),
    "riem_gradient_dual": gen_row(lambda n: (CW, P[n][0], P[n][1])),
    # geodesics
    "Curve": Row(lambda: (CURVE.times, CURVE.points, "primal", CURVE.velocities),
                 wrong=lambda: (CURVE.times, CURVE.points, "primal",
                                np.zeros((CURVE.times.size, 3))),
                 message=r"^velocities of shape \(9, 3\) at points of shape \(9, 2\)$"),
    "PythResult": record(lambda: lgeo.pythagorean_sign(CW, *P[3])),
    "primal_geodesic": gen_row(lambda n: (CW, P[n][0], P[n][1]), grid=9),
    "dual_geodesic": gen_row(lambda n: (CW, P[n][0], P[n][1]), grid=9),
    "integrate_geodesic": gen_row(lambda n: (CW, TH[n][0], TH[n][1] - TH[n][0]), steps=8),
    "primal_flow": gen_row(lambda n: (CW, P[n][0], P[n][1]), steps=8),
    "dual_flow": gen_row(lambda n: (CW, P[n][0], P[n][1]), steps=8),
    "inverse_exp": gen_row(lambda n: (CW, P[n][0], P[n][1])),
    "pythagorean_sign": gen_row(lambda n: (CW, *P[n])),
    "region_sample": gen_row(lambda n: (CW, P[n][0], P[n][2]), grid_resolution=6),
    # transport
    "ActionValue": record(lambda: lgeo.action(CURVE)),
    "InterpolationFamily": Row(lambda: (CW, "market")),
    "action": Row(lambda: (CURVE,)),
    "minimizing_curve": Row(lambda: (TH[3][0], TH[3][1]), {"grid": 9},
                            wrong=lambda: (TH[3][0], TH[4][0]), message=SHAPES),
    "displacement_family": Row(lambda: (CW,)),
    "market_interpolation": Row(lambda: (CW,)),
    "gaussian_example_check": Row(lambda: (*GAUSS, 0.5), {"sample_size": 200},
                                  wrong=lambda: (*GAUSS[:2], [0.8, 1.2, 1.0], 0.5),
                                  message=r"^dimension mismatch: a, b and sigma of sizes "
                                          r"\[2, 2, 3\]$"),
    "coupling_cost": Row(lambda: (SAMPLE,)),
    # finance
    "MarketPath": Row(lambda: ([0, 1, 2], P[3])),
    "BacktestReport": record(lambda: lgeo.fernholz_decompose(CW, path(3))),
    "fernholz_decompose": gen_row(lambda n: (CW, path(n))),
    "rebalance_compare": gen_row(lambda n: (CW, path(n), [0, 1], [0])),
}


def test_every_public_callable_is_in_the_table_or_exempt():
    public = {name for name, value in vars(lgeo).items()
              if not name.startswith("_") and callable(value)}
    assert not set(TABLE) & set(EXEMPT)
    assert sorted(public - set(TABLE) - set(EXEMPT)) == []  # add a row, or exempt with a reason
    assert sorted((set(TABLE) | set(EXEMPT)) - public) == []  # a row of a removed export


@pytest.mark.parametrize("name", sorted(TABLE))
def test_valid_arguments_are_accepted(name):
    row = TABLE[name]
    getattr(lgeo, name)(*row.args(), **row.kwargs)


@pytest.mark.parametrize("name", sorted(n for n, row in TABLE.items() if row.wrong))
def test_wrong_dimension_names_both_dimensions(name):
    row = TABLE[name]
    with pytest.raises(ValueError, match=row.message) as info:
        getattr(lgeo, name)(*row.wrong(), **row.kwargs)
    assert "broadcast" not in str(info.value)


@pytest.mark.parametrize("name, k", [(name, k) for name, row in sorted(TABLE.items())
                                     for k in range(len(row.bad))])
def test_bad_input_is_rejected_by_name(name, k):
    args, message = TABLE[name].bad[k]
    with pytest.raises(ValueError, match=message):
        getattr(lgeo, name)(*args(), **TABLE[name].kwargs)


# the rows that take points or coordinates; the other rows with a wrong
# variant check input of their own kind, by their own rules
BOUNDARY = sorted({name for name, row in TABLE.items() if row.wrong}
                  - {"CouplingSample", "Curve", "gaussian_example_check"} | {"psi"})
MIX = lgeo.ConvexCombination([CW, lgeo.DiversityWeighted(0.5)], [0.4, 0.6])


@pytest.mark.parametrize("gen", [CW, MIX], ids=["cw", "mix"])
@pytest.mark.parametrize("name", BOUNDARY)
def test_one_boundary_call_per_public_call(monkeypatch, name, gen):
    # library code calls the kernels below the boundary, never a public
    # entry point that would check its points or coordinates again
    calls = []
    for check in (simplex.point_rows, simplex.coord_rows):
        def counted(*args, _check=check, **kwargs):
            calls.append(_check.__name__)
            return _check(*args, **kwargs)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "lgeo"]:
            for attr, value in list(vars(module).items()):
                if value is check:
                    monkeypatch.setattr(module, attr, counted)
    row = TABLE[name]
    args = tuple(gen if a is CW else a for a in row.args())
    getattr(lgeo, name)(*args, **row.kwargs)
    assert len(calls) == 1, calls


@pytest.mark.parametrize("call", [
    lambda g, a, b: lgeo.f_value(g, a),
    lambda g, a, b: lgeo.c_transform(g, a),
    lambda g, a, b: lgeo.l_divergence_primal(g, a, b),
    lambda g, a, b: lgeo.l_divergence_dual(g, a, b),
    lambda g, a, b: lgeo.pi_quantities(g, a, b),
    lambda g, a, b: lgeo.metric_dual(g, a),
    lambda g, a, b: lgeo.geometry.dual_jacobian(g, a),
    lambda g, a, b: lgeo.integrate_geodesic(g, a, [0.1, -0.2], steps=8),
], ids=["f_value", "c_transform", "l_divergence_primal", "l_divergence_dual", "pi_quantities",
        "metric_dual", "dual_jacobian", "integrate_geodesic"])
@pytest.mark.parametrize("gen", [CW, lgeo.DiversityWeighted(0.5), MIX], ids=["cw", "dw", "mix"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_coordinates_that_underflow_are_non_regular(call, gen, sign):
    # theta = +-(1e3, -1e3) puts an entry of its point at about e^-2000,
    # which underflows to 0 and would reach a log as a RuntimeWarning
    a = sign * np.array([1e3, -1e3])
    with pytest.raises(lgeo.NonRegularError, match="lies on the simplex boundary"):
        call(gen, a, -a)


def test_region_gap_checks_the_rows_of_q():
    # region_gap is public in lgeo.geodesics but not a package export, so it
    # has no row in the table.  The rows q of Q are points like p and r:
    # a Q of another width names the sizes (under dw:0.5, of any dimension)
    # or both dimensions (under CW), and a NaN row fails by name, where
    # numpy's broadcast message and a nan gap with a RuntimeWarning came out
    region_gap, dw = lgeo.geodesics.region_gap, lgeo.DiversityWeighted(0.5)
    p, r = P[3][0], P[3][2]
    assert region_gap(dw, p, r, P[3]).shape == (3,)
    with pytest.raises(ValueError, match=r"^dimension mismatch: points of sizes "
                                         r"\[3, 3, 4, 4, 4\]$"):
        region_gap(dw, p, r, P[4])
    with pytest.raises(ValueError, match=GEN_DIM):
        region_gap(CW, P[4][0], P[4][2], P[4])
    Q = P[3].copy()
    Q[1, 0] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        region_gap(dw, p, r, Q)
