"""Hard-instance gadget: generation, routing matrices, and the counting side."""
import json
import math
from itertools import permutations as all_permutations

import pytest

from cd_router import lowerbound as lb
from cd_router.instance import InvalidInstanceError, encode, shared_path_instance, stats
from cd_router.oracle import OracleCapacityError, optimal_makespan
from cd_router.simulator import simulate

from conftest import fixture_text


@pytest.fixture()
def gadget2():
    return lb.deserialize(fixture_text("lb-n2.json"))


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
    text = lb.serialize(gadget2)
    again = lb.deserialize(text)
    assert again.permutations == gadget2.permutations == ((1, 2), (2, 1))
    assert again.instance.paths == gadget2.instance.paths
    assert lb.serialize(again) == text


def test_deserialize_needs_the_permutation_sidecar():
    with pytest.raises(InvalidInstanceError, match="permutations"):
        lb.deserialize(encode(shared_path_instance(2, 3)))


def test_deserialize_round_trips_a_generated_gadget():
    gadget = lb.generate(4, seed=7)
    again = lb.deserialize(lb.serialize(gadget))
    assert again == gadget


@pytest.mark.parametrize("perms, match", [
    (["21", "12"], "row 0 is not a permutation"),  # strings, not arrays
    ([[1, 2.7], [2, 1]], "row 0 is not a permutation"),
    ([[2.0, 1], [1, 2]], "row 0 is not a permutation"),
    ([[1, 2], [True, 2]], "row 1 is not a permutation"),
    ([[1, 1], [2, 1]], "row 0 is not a permutation of 1..2"),
    ([[1, 2], [2, 3]], "row 1 is not a permutation of 1..2"),
    ([[1, 2]], "1 rows for 2 paths"),
    ([[1, 2], [2, 1], [1, 2]], "3 rows for 2 paths"),
    ([[1], [1]], "row 0 is not a permutation of 1..2"),
])
def test_deserialize_rejects_a_bad_permutation_sidecar(perms, match):
    doc = json.loads(lb.serialize(lb.generate(2)))
    doc["permutations"] = perms
    with pytest.raises(InvalidInstanceError, match=match):
        lb.deserialize(json.dumps(doc))


def test_deserialize_rejects_a_sidecar_that_contradicts_the_paths():
    doc = json.loads(lb.serialize(lb.generate(3, 0)))
    perms = doc["permutations"]
    perms[0], perms[1] = perms[1], perms[0]
    assert perms[0] != perms[1]
    with pytest.raises(InvalidInstanceError, match=r"path 0 is not the gadget path of its permutation \[2, 1, 3\]"):
        lb.deserialize(json.dumps(doc))


def test_deserialize_rejects_an_instance_that_is_no_gadget():
    doc = json.loads(encode(shared_path_instance(2, 2)))
    doc["paths"][1] = doc["paths"][1][:1]  # paths of 2 and 1 edges
    doc["permutations"] = [[1, 2], [2, 1]]
    with pytest.raises(InvalidInstanceError, match="path 0 is not the gadget path"):
        lb.deserialize(json.dumps(doc))


def test_deserialize_validates_the_gadget():
    text = lb.serialize(lb.generate(2))
    doc = json.loads(text)
    doc["paths"][1][3] = "nope"
    with pytest.raises(InvalidInstanceError, match="path 1 is not the gadget path"):
        lb.deserialize(json.dumps(doc))
    # the gadget's paths, on a graph that does not carry them
    doc = json.loads(text)
    doc["edges"] = [e for e in doc["edges"] if e["id"] != "out"]
    with pytest.raises(InvalidInstanceError, match="unknown edge out") as missing:
        lb.deserialize(json.dumps(doc))
    assert missing.value.violations == ("path 0: unknown edge out", "path 1: unknown edge out")
    doc = json.loads(text)
    crit = next(e for e in doc["edges"] if e["id"] == "crit_1")
    crit["tail"] = "s"
    with pytest.raises(InvalidInstanceError, match="edge crit_1 tail s does not continue from u1"):
        lb.deserialize(json.dumps(doc))


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
