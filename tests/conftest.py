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


@pytest.fixture
def register_kernel(monkeypatch):
    """Add a test kernel to the registry for one test: ``register_kernel(id,
    run, counter_rule)`` returns the id; the rule "True" checks nothing."""
    from ftbtrace.kernels import KERNELS, Kernel

    def register(kernel_id, run, counter_rule="True"):
        monkeypatch.setitem(KERNELS, kernel_id, Kernel(run, False, counter_rule))
        return kernel_id

    return register
