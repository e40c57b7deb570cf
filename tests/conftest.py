import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=200,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def count_all():
    def code(hit, ctx, prd):
        return None

    return code
