"""Properties of the whole pipeline on random valid instances."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cd_router.fixer import FixerConfig, run_pipeline  # noqa: E402
from cd_router.instance import generate_random_instance  # noqa: E402
from cd_router.simulator import CheckRequirements, check, simulate  # noqa: E402


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    variant=st.sampled_from(["plain", "buffered"]),
    strategy=st.sampled_from(["resample", "greedy"]),
)
def test_a_run_is_deterministic_feasible_and_within_its_counting_cap(seed, variant, strategy):
    instance = generate_random_instance(seed, max_packets=24, max_length=64)
    config = FixerConfig(variant=variant, strategy=strategy, seed=seed)
    result = run_pipeline(instance, config)
    again = run_pipeline(instance, config)
    assert (again.schedule, again.report) == (result.schedule, result.report)
    report = result.report
    replay = simulate(instance, result.schedule, capacity=1)
    assert check(replay, CheckRequirements(capacity=1, makespan_bound=report.makespan)).ok
    assert replay.makespan == report.makespan
    assert report.load <= report.counting_cap
