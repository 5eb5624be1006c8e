import pytest
from hypothesis import HealthCheck, settings

from firewatch.model import AlgoParams
from firewatch.planner import plan
from firewatch.scenario import GenConfig, generate
from testutil import TEST_TIME_LIMIT_S, time_limit

settings.register_profile(
    "suite", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test still running after TEST_TIME_LIMIT_S instead of letting
    it hang the suite (faulthandler_timeout in pyproject.toml only dumps the
    stacks)."""
    with time_limit(TEST_TIME_LIMIT_S):
        yield


@pytest.fixture(scope="session")
def default_scenario():
    """The standard 200-sensor / 5-edge evaluation scenario, seed 0."""
    return generate(GenConfig())


@pytest.fixture(scope="session")
def default_algo():
    return AlgoParams()


@pytest.fixture(scope="session")
def default_plan(default_scenario, default_algo):
    return plan(default_scenario, default_algo)


@pytest.fixture(scope="session")
def small_scenario():
    return generate(GenConfig(n_sensors=40, n_edges=3, seed=7))
