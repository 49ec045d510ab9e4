import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

from lgeo import generators as G


def builtin_zoo(n: int) -> dict:
    """The four built-in regular generator families at dimension n."""
    rng = np.random.default_rng(100 + n)
    w = rng.dirichlet(np.ones(n)) * 0.5 + 0.5 / n  # interior, not too skewed
    zoo = {
        "equal": G.equal_weighted(n),
        "constant": G.ConstantWeighted(w),
        "diversity": G.DiversityWeighted(0.5),
        "gdw": G.GeneralizedDiversityWeighted(rng.uniform(0.5, 2.0, size=n), 0.4),
    }
    zoo["mix"] = G.ConvexCombination([zoo["constant"], zoo["diversity"]], [0.4, 0.6])
    return zoo


def dirichlet_points(rng, n: int, size: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n), size=size)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
