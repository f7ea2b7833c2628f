"""Hard-instance gadget: generation, routing matrices, and the counting side."""
import json
import math
from itertools import permutations as all_permutations

import pytest

from cd_router import lowerbound as lb
from cd_router.delay_model import DelayAssignment
from cd_router.dissection import build_ladder, dissect_plain
from cd_router.fixer import realized_loads, stretch
from cd_router.instance import decode, generate_random_instance, pad, shared_path_instance, stats
from cd_router.oracle import OracleCapacityError, exhaustive_expectation, optimal_makespan, stepped_simulation
from cd_router.schedule import Schedule
from cd_router.simulator import CheckRequirements, simulate


@pytest.fixture()
def gadget2():
    return lb.generate(2, seed=0)  # tests/fixtures/lb-n2.json, as `test_cli.py` pins


# --- generation --------------------------------------------------------------

def test_gadget_shape():
    g1 = lb.generate(1, seed=0)
    s1 = stats(g1.instance)
    assert (s1.congestion, s1.dilation) == (1, 5)
    assert g1.path_length == 5
    g3 = lb.generate(3, seed=0)
    s3 = stats(g3.instance)
    assert (s3.congestion, s3.dilation) == (3, 9)
    assert all(sorted(p) == [1, 2, 3] for p in g3.permutations)


def test_generation_is_deterministic():
    a = lb.generate(3, seed=42)
    b = lb.generate(3, seed=42)
    assert a.permutations == b.permutations
    assert lb.serialize(a) == lb.serialize(b)
    c = lb.generate(3, seed=43)
    assert lb.serialize(c) != lb.serialize(a)


def test_generate_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        lb.generate(0)


def test_serialization_round_trip(gadget2):
    # `lowerbound solve` reads a gadget file back as a plain instance; the
    # permutations sidecar is for readers of the file
    text = lb.serialize(gadget2)
    assert gadget2.permutations == ((1, 2), (2, 1))
    assert json.loads(text)["permutations"] == [[1, 2], [2, 1]]
    assert decode(text) == gadget2.instance


def test_permutations_are_uniform():
    # 10^4 draws over the 24 orderings of n=4; chi-square with 23 degrees
    # of freedom sits far below the 0.999 quantile (~49.7)
    counts: dict[tuple[int, ...], int] = {}
    for seed in range(2500):
        for perm in lb.generate(4, seed=seed).permutations:
            counts[perm] = counts.get(perm, 0) + 1
    expected = 10000 / 24
    stat = sum(
        (counts.get(cat, 0) - expected) ** 2 / expected
        for cat in all_permutations(range(1, 5))
    )
    assert stat < 49.7


# --- routing matrices --------------------------------------------------------

def test_zero_matrix_walks_straight_through():
    g1 = lb.generate(1, seed=0)
    schedule = lb.matrix_to_schedule(g1, [[0, 0, 0]])
    assert simulate(g1.instance, schedule, capacity=1).makespan == 5


def test_feasible_matrix_on_the_fixture(gadget2):
    matrix = [[0, 0, 0, 0], [1, 0, 0, 0]]
    schedule = lb.matrix_to_schedule(gadget2, matrix)
    trace = simulate(gadget2.instance, schedule, capacity=1)
    assert trace.max_load == 1
    assert trace.makespan == 8
    assert optimal_makespan(gadget2.instance) == 8  # so that matrix is optimal


def test_arrivals_follow_row_sums(gadget2):
    for matrix in ([[0, 1, 2, 0], [3, 0, 0, 1]], [[5, 0, 0, 0], [0, 0, 0, 5]]):
        schedule = lb.matrix_to_schedule(gadget2, matrix)
        for i, row in enumerate(matrix):
            assert schedule.arrival(i) == sum(row) + gadget2.path_length


def test_matrix_shape_is_enforced(gadget2):
    with pytest.raises(ValueError, match="2 x 4"):
        lb.matrix_to_schedule(gadget2, [[0, 0, 0, 0]])
    with pytest.raises(ValueError, match="2 x 4"):
        lb.matrix_to_schedule(gadget2, [[0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="nonnegative"):
        lb.matrix_to_schedule(gadget2, [[0, 0, 0, 0], [-1, 0, 0, 0]])


def test_candidacy_needs_distinct_entries_and_arrivals(gadget2):
    zeros = [[0, 0, 0, 0], [0, 0, 0, 0]]
    assert not lb.is_candidate(gadget2, zeros, horizon=10)  # entry collision
    good = [[0, 0, 0, 0], [1, 0, 0, 0]]
    assert lb.is_candidate(gadget2, good, horizon=8)
    assert not lb.is_candidate(gadget2, good, horizon=7)  # arrives too late
    same_sum = [[0, 1, 0, 0], [1, 0, 0, 0]]  # both arrive at slot 8
    assert not lb.is_candidate(gadget2, same_sum, horizon=9)


def test_critical_crossings_sum_to_n_squared(gadget2):
    schedule = lb.matrix_to_schedule(gadget2, [[0, 0, 0, 0], [1, 0, 0, 0]])
    counts = lb.critical_crossings(gadget2, schedule)
    assert counts == {3: 1, 4: 1, 5: 1, 6: 1}
    assert sum(counts.values()) == gadget2.n ** 2


# --- counting ----------------------------------------------------------------

def test_candidate_count_at_the_optimum(gadget2):
    # at horizon 8 exactly two matrices qualify: the zero matrix plus one
    # source wait, in either packet order
    assert lb.count_candidates(gadget2, horizon=8) == 2
    assert lb.count_candidates(gadget2, horizon=7) == 0
    assert lb.count_candidates(gadget2, horizon=4) == 0  # below path length


def test_candidate_count_respects_entropy_bound(gadget2):
    for horizon in (8, 9, 10):
        eps = horizon / gadget2.path_length - 1.0
        bound = lb.counting_bound(gadget2.n, eps)
        assert lb.count_candidates(gadget2, horizon=horizon) <= 2 ** bound


@pytest.mark.parametrize("n, horizons, counts", [
    (1, range(4, 13), [0, 1, 4, 10, 20, 35, 56, 84, 120]),
    (2, range(6, 15), [0, 0, 2, 48, 394, 1990, 7506, 23214, 62106]),
    (3, range(8, 15), [0, 0, 0, 6, 1392, 51378, 823_332]),
])
def test_candidate_count_frozen_values(n, horizons, counts):
    # taken from the rows^n enumeration this count replaced (its cap raised at n = 3, horizon 14)
    gadget = lb.generate(n, seed=0)
    assert [lb.count_candidates(gadget, horizon=h) for h in horizons] == counts


def test_candidate_count_refuses_explosions():
    # the cap bounds the DP's steps, (slack + 1)^2 * sum of C(slack + 1, k) for k < n:
    # 32^2 * 529 = 541,696 at n = 3, horizon 40
    g3 = lb.generate(3, seed=0)
    assert lb.count_candidates(g3, horizon=40, cap=541_696) == 31_755_573_808_994_688
    with pytest.raises(OracleCapacityError):
        lb.count_candidates(g3, horizon=40, cap=541_695)
    with pytest.raises(OracleCapacityError):
        lb.count_candidates(lb.generate(8, seed=0), horizon=80)


# --- entropy side ------------------------------------------------------------

def test_phi_fixed_points():
    assert lb.phi(0.0) == 0.0
    assert lb.phi(1.0) == pytest.approx(2.0)
    assert lb.phi(0.000032) == pytest.approx(5.2398e-4, rel=1e-4)
    with pytest.raises(ValueError):
        lb.phi(-0.1)


def test_phi_upper_bound_for_small_eps():
    for i in range(1, 101):
        eps = i * 0.001
        assert lb.phi(eps) <= 1.5 * eps * math.log2(1.0 / eps), eps


def test_phi_is_concave_and_increasing():
    xs = [i * 0.4 / 99 for i in range(100)]
    ys = [lb.phi(x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))
    second = [ys[i + 1] - 2 * ys[i] + ys[i - 1] for i in range(1, 99)]
    assert all(d < 0 for d in second)


def test_phi_stays_accurate_at_extreme_eps():
    # eps / (1 + eps) rounds to 1.0 from about eps = 1e16 on, where the
    # binary entropy reads 0; to first order in 1/eps, phi(eps) is
    # log2(eps) + 1 / ln 2 for a large eps, and eps times that for a tiny one
    assert lb.phi(1e20) == pytest.approx(math.log2(1e20) + 1 / math.log(2), rel=1e-12)
    assert lb.phi(1e-300) == pytest.approx(1e-300 * (math.log2(1e300) + 1 / math.log(2)), rel=1e-12)
    assert not lb.margin(1e20).holds
    xs = [10.0 ** (k / 4) for k in range(-1200, 1201)]
    ys = [lb.phi(x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))
    # below about 5.6e-309, 1 / eps overflows to inf
    assert 0 < lb.phi(5e-324) < lb.phi(1e-300)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError):
            lb.phi(bad)


def test_margin_separates_small_eps():
    assert lb.COLLISION_EXPONENT == pytest.approx(math.log2(16 / 15) / 128)
    small = lb.margin(0.000032)
    assert small.holds
    assert small.phi_value == pytest.approx(5.2398e-4, rel=1e-4)
    assert not lb.margin(0.01).holds
    assert lb.margin(0.0).holds  # degenerate: phi(0) = 0 wins trivially


def test_counting_bound_holds_on_the_grid_it_states():
    for n in range(3, 7):
        gadget = lb.generate(n, seed=0)
        for slack in range(11):
            horizon = gadget.path_length + slack
            count = lb.count_candidates(gadget, horizon=horizon)
            bound = lb.counting_bound(n, horizon / gadget.path_length - 1.0)
            assert count == 0 or math.log2(count) <= bound, (n, slack)


@pytest.mark.parametrize("n, horizon, count", [(1, 7, 10), (2, 15, 148_698)])
def test_counting_bound_fails_first_at_the_known_exceptions(n, horizon, count):
    # the smallest horizons at which the count exceeds the bound for n <= 2
    gadget = lb.generate(n, seed=0)

    def exceeds(h):
        c = lb.count_candidates(gadget, horizon=h)
        return c > 0 and math.log2(c) > lb.counting_bound(n, h / gadget.path_length - 1.0)

    assert lb.count_candidates(gadget, horizon=horizon) == count
    assert exceeds(horizon)
    assert not any(exceeds(h) for h in range(gadget.path_length, horizon))


def test_counting_bound_frozen_values():
    assert lb.counting_bound(10, 0.0) == pytest.approx(20 * math.log2(20))
    assert lb.counting_bound(4, 0.25) == pytest.approx(lb.phi(0.25) * 16 + 8 * math.log2(8))
    with pytest.raises(ValueError):
        lb.counting_bound(0, 0.1)


# --- argument refusals ---------------------------------------------------------

_VALUES = (16.0, 3.5, True, False, "16", None, -1, -16)
_GOOD = [[0, 0, 0, 0], [1, 0, 0, 0]]  # a candidate on `generate(2)` by horizon 8


def _with_wait(x):
    return [[x, 0, 0, 0], [1, 0, 0, 0]]


def _stretch_at(load):
    instance, schedule = shared_path_instance(2, 3), Schedule(waits=_GOOD)
    slots = [schedule.crossing_slots(p) for p in range(schedule.n_packets)]
    return stretch(schedule, slots, load, realized_loads(instance, slots))


def _capped(call):
    """A cap is an int of any value: one that is too small is no refusal of its type."""
    try:
        call()
    except OracleCapacityError:
        pass


def _expectation_capped(cap):
    padded = pad(shared_path_instance(2, 3))
    tree = dissect_plain(build_ladder(padded.length, 2))
    _capped(lambda: exhaustive_expectation(padded, DelayAssignment(tree, 2), cap=cap))


# entry -> (a call of it with the value in one argument, the values of _VALUES it accepts)
_ENTRY_POINTS = {
    "build_ladder-length": (lambda x: build_ladder(x, 4), ()),
    "build_ladder-delta": (lambda x: build_ladder(16, x), ()),
    "generate-n": (lambda x: lb.generate(x), ()),
    "counting_bound-n": (lambda x: lb.counting_bound(x, 0.1), ()),
    # None is the default horizon
    "optimal_makespan-horizon": (lambda x: optimal_makespan(lb.generate(2, seed=0).instance, horizon=x), (None,)),
    "count_candidates-horizon": (lambda x: lb.count_candidates(lb.generate(2, seed=0), horizon=x), ()),
    "is_candidate-horizon": (lambda x: lb.is_candidate(lb.generate(2, seed=0), _GOOD, x), ()),
    "is_candidate-wait": (lambda x: lb.is_candidate(lb.generate(2, seed=0), _with_wait(x), 20), ()),
    "matrix_to_schedule-wait": (lambda x: lb.matrix_to_schedule(lb.generate(2, seed=0), _with_wait(x)), ()),
    # eps is a real number: a float is in range
    "phi-eps": (lb.phi, (16.0, 3.5)),
    "margin-eps": (lb.margin, (16.0, 3.5)),
    "counting_bound-eps": (lambda x: lb.counting_bound(3, x), (16.0, 3.5)),
    "shared_path_instance-congestion": (lambda x: shared_path_instance(x, 3), ()),
    "shared_path_instance-dilation": (lambda x: shared_path_instance(2, x), ()),
    "generate_random_instance-max_packets": (lambda x: generate_random_instance(0, max_packets=x), ()),
    "generate_random_instance-max_length": (lambda x: generate_random_instance(0, max_length=x), ()),
    # None draws the node count
    "generate_random_instance-n_nodes": (lambda x: generate_random_instance(0, n_nodes=x), (None,)),
    # `stretch` multiplies slots by its load, which `realized_loads` makes at least 1
    "stretch-load": (_stretch_at, ()),
    # a cap checks the type only: 0 and below stay caps, which every instance exceeds
    "optimal_makespan-state_cap": (
        lambda x: _capped(lambda: optimal_makespan(lb.generate(2, seed=0).instance, state_cap=x)), (-1, -16),
    ),
    "exhaustive_expectation-cap": (_expectation_capped, (-1, -16)),
    "count_candidates-cap": (lambda x: _capped(lambda: lb.count_candidates(lb.generate(2, seed=0), 8, cap=x)), (-1, -16)),
    # a requirement checks the type only: a bound of 0 or below stays a bound
    **{
        f"CheckRequirements-{name}": (lambda x, name=name: CheckRequirements(**{name: x}), (None, -1, -16))
        for name in ("capacity", "makespan_bound", "buffer_bound", "edge_wait_bound")
    },
}


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, accepted) in _ENTRY_POINTS.items()
    for value in _VALUES
    if value not in accepted
])
def test_entry_points_refuse_what_is_not_an_int_in_range(entry, value):
    with pytest.raises(ValueError):
        _ENTRY_POINTS[entry][0](value)


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (_, accepted) in _ENTRY_POINTS.items()
    for value in accepted
])
def test_entry_points_take_the_values_they_accept(entry, value):
    _ENTRY_POINTS[entry][0](value)


@pytest.mark.parametrize("call, message", [
    (lambda: simulate(shared_path_instance(2, 3), Schedule(waits=[[0] * 4] * 2), capacity=1.5),
     "capacity must be an integer of at least 1, got 1.5"),
    (lambda: stepped_simulation(shared_path_instance(2, 3), Schedule(waits=[[0] * 4] * 2), capacity=True),
     "capacity must be an integer of at least 1, got True"),
    (lambda: optimal_makespan(lb.generate(2, seed=0).instance, horizon=-1),
     "horizon must be an integer of at least 0, got -1"),
    (lambda: lb.generate("3"), "n must be an integer of at least 1, got '3'"),
    (lambda: lb.counting_bound(0, 0.1), "n must be an integer of at least 1, got 0"),
], ids=["simulate", "stepped_simulation", "optimal_makespan", "generate", "counting_bound"])
def test_the_integer_rule_keeps_each_old_message(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
