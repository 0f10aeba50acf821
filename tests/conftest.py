import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# CI fuzzes the dense-oracle suites harder: pytest --hypothesis-profile=ci
settings.register_profile("ci", parent=settings.get_profile("default"), max_examples=500)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)
