"""Information geometry of exponentially concave functions on the simplex.

The package realizes, numerically, the geometry a single exponentially
concave generating function induces on the open probability simplex: the
log-approximation divergence and its transport-cost duality, the Riemannian
metric with its dual pair of projectively flat connections (constant
sectional curvature -1), closed-form primal/dual geodesics and gradient
flows, the three-point rebalancing criterion, displacement interpolation of
portfolio maps, and the exact decomposition of rebalancing profits along
market-weight paths.
"""

__version__ = "0.1.0"

from .simplex import (
    CostValue,
    DualCoord,
    PrimalCoord,
    SimplexPoint,
    cost,
    from_primal,
    psi,
    to_primal,
)
from .generators import (
    ConstantWeighted,
    ConvexCombination,
    CustomGenerator,
    DiversityWeighted,
    GeneralizedDiversityWeighted,
    Generator,
    NonRegularError,
    Portfolio,
    UniformCrossEntropy,
    ZeroGenerator,
    check_regularity,
    dual_coord,
    dual_euclidean,
    equal_weighted,
    generator_from_config,
    generator_from_json,
    generator_to_json,
    jacobian_dual,
    portfolio,
    weights_from_gaussian,
)
from .divergence import (
    CouplingSample,
    DivergenceValue,
    bregman,
    c_divergence,
    c_divergence_dual,
    c_transform,
    f_value,
    inverse_dual_coord,
    is_c_cyclical_monotone,
    is_mcm,
    l_divergence,
    l_divergence_dual,
    l_divergence_primal,
    optimal_assignment,
    pyth_transport_gap,
)
from .geometry import (
    ChristoffelTensor,
    MetricMatrix,
    PiQuantities,
    christoffel_dual,
    christoffel_primal,
    metric_dual,
    metric_euclidean,
    metric_primal,
    pi_quantities,
    pi_quantities_dual,
    rc_curvature,
    ricci,
    riem_gradient_dual,
    riem_gradient_primal,
    sectional_curvature,
)
from .geodesics import (
    Curve,
    PythResult,
    dual_flow,
    dual_geodesic,
    integrate_geodesic,
    inverse_exp,
    primal_flow,
    primal_geodesic,
    pythagorean_sign,
    region_sample,
)
from .transport import (
    ActionValue,
    InterpolationFamily,
    action,
    coupling_cost,
    displacement_family,
    gaussian_example_check,
    market_interpolation,
    minimizing_curve,
)
from .finance import (
    BacktestReport,
    MarketPath,
    fernholz_decompose,
    ingest_csv,
    rebalance_compare,
)
