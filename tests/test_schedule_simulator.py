import dataclasses
import json
import random
import time
from operator import itemgetter

import pytest

from cd_router import simulator
from cd_router.instance import Edge, Instance, decode as decode_instance, generate_random_instance, shared_path_instance, stats
from cd_router.oracle import stepped_simulation
from cd_router.schedule import Schedule, ScheduleError, decode, encode, waits_from_slots
from cd_router.simulator import (
    CheckRequirements,
    CheckResult,
    SimulationTrace,
    arrivals_csv_rows,
    check,
    loads_csv_rows,
    simulate,
)

from conftest import fixture_text


def zero_wait(instance):
    return Schedule(waits=[[0] * (len(p) + 1) for p in instance.paths])


def test_schedule_accessors():
    s = Schedule(waits=[[2, 0, 1, 0]])
    assert s.n_packets == 1
    assert s.path_length(0) == 3
    assert s.crossing_slots(0) == [3, 4, 6]
    assert waits_from_slots([3, 4, 6], 0) == [2, 0, 1, 0]
    assert s.arrival(0) == 6
    assert s.makespan == 6


def test_schedule_json_round_trip():
    s = Schedule(waits=[[1, 0, 0], [0, 2, 0]])
    text = encode(s)
    doc = json.loads(text)
    assert doc["makespan"] == s.makespan
    assert doc["packets"][0]["arrival"] == s.arrival(0)
    assert decode(text) == s


def _indented_encode(schedule: Schedule) -> str:
    """The schedule document as `json` lays it out with indent=2."""
    doc = {
        "packets": [
            {"waits": list(w), "arrival": schedule.arrival(i)}
            for i, w in enumerate(schedule.waits)
        ],
        "makespan": schedule.makespan,
    }
    return json.dumps(doc, indent=2) + "\n"


def test_schedule_encode_of_a_single_wait():
    text = encode(Schedule(waits=[[0]]))
    assert text == _indented_encode(Schedule(waits=[[0]]))
    assert text == '{\n  "packets": [\n    {\n      "waits": [\n        0\n      ],\n' \
        '      "arrival": 0\n    }\n  ],\n  "makespan": 0\n}\n'


def test_schedule_encode_is_the_indented_layout_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.lists(st.integers(0, 10**12), min_size=1, max_size=8), min_size=1, max_size=6))
    def prop(waits):
        schedule = Schedule(waits=waits)
        assert encode(schedule) == _indented_encode(schedule)

    prop()


def test_schedule_decode_rejects_bad_documents():
    with pytest.raises(ScheduleError):
        decode("nope {")
    with pytest.raises(ScheduleError):
        decode(json.dumps({"packets": [{"waits": [-1, 0]}]}))
    with pytest.raises(ScheduleError):
        decode(json.dumps({"nothing": []}))


@pytest.mark.parametrize("waits", [
    [2.7, 0], ["3", 0], [True, 0], [0, False], [None, 0], [1.0, 0], "12", {"0": 1},
])
def test_schedule_decode_rejects_non_integer_waits(waits):
    with pytest.raises(ScheduleError, match="not a JSON"):
        decode(json.dumps({"packets": [{"waits": [0, 0]}, {"waits": waits}]}))


def test_schedule_decode_keeps_large_integers():
    text = json.dumps({"packets": [{"waits": [0, 10**12, 0]}]})
    assert decode(text).waits == [[0, 10**12, 0]]


def test_fig1_zero_wait_collision(fig1):
    trace = simulate(fig1, zero_wait(fig1))
    assert trace.loads[("e4", 2)] == 2
    assert trace.max_load == 2
    report = check(trace, CheckRequirements(capacity=1))
    assert not report.ok
    failing = [r for r in report.results if not r.passed]
    assert len(failing) == 1
    assert "e4" in failing[0].detail and "2" in failing[0].detail
    # the collision disappears at capacity 2
    assert check(trace, CheckRequirements(capacity=2)).ok


def test_single_packet_zero_waits():
    inst = shared_path_instance(1, 6)
    trace = simulate(inst, zero_wait(inst))
    assert trace.makespan == 6
    assert trace.arrivals == [6]
    assert trace.max_load == 1
    assert trace.crossing_slots[0] == [1, 2, 3, 4, 5, 6]


def test_conservation_and_monotonicity(fig1):
    trace = simulate(fig1, zero_wait(fig1))
    assert sum(trace.loads.values()) == sum(len(p) for p in fig1.paths)
    for slots in trace.crossing_slots:
        assert all(b > a for a, b in zip(slots, slots[1:]))


def test_waits_split_parking_from_buffering():
    inst = shared_path_instance(1, 3)
    # wait 5 at source (parking), 2 before the middle edge (buffered)
    sched = Schedule(waits=[[5, 2, 0, 0]])
    trace = simulate(inst, sched)
    assert trace.edge_waits == {(0, "e1"): 2}
    assert trace.max_edge_wait == 2
    assert trace.max_occupancy == 1
    # occupancy is charged to the waited-for edge while the packet holds:
    # e0, e1 and e2 are crossed at slots 6, 9 and 10
    occupancy = stepped_simulation(inst, sched).occupancy
    assert occupancy == {("e1", 6): 1, ("e1", 7): 1, ("e1", 8): 1, ("e2", 9): 1}


def test_edge_waits_are_derived_on_first_read():
    inst = shared_path_instance(1, 3)
    trace = simulate(inst, Schedule(waits=[[5, 2, 0, 0]]))
    assert "edge_waits" not in vars(trace)
    assert trace.max_load == 1 and trace.makespan == 10
    assert "edge_waits" not in vars(trace)
    assert check(trace, CheckRequirements(edge_wait_bound=1)).ok is False
    assert vars(trace)["edge_waits"] == {(0, "e1"): 2}


def test_revisiting_own_source_counts_as_parking():
    inst = Instance(
        nodes={"a", "b", "c"},
        edges=[Edge("e1", "a", "b"), Edge("e2", "b", "a"), Edge("e3", "a", "c")],
        paths=[["e1", "e2", "e3"]],
    )
    sched = Schedule(waits=[[0, 0, 4, 0]])
    trace = simulate(inst, sched)
    assert trace.edge_waits == {}
    assert trace.arrivals == [7]


def test_simulate_rejects_shape_mismatch(fig1):
    with pytest.raises(ScheduleError):
        simulate(fig1, Schedule(waits=[[0, 0]]))
    with pytest.raises(ScheduleError):
        simulate(fig1, Schedule(waits=[[0, 0, 0], [0] * 5, [0] * 4]))


def test_simulate_names_the_first_packet_with_a_negative_wait():
    inst = shared_path_instance(4, 3)
    waits = [[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 3]]
    with pytest.raises(ScheduleError, match=r"^packet 2: negative wait$"):
        simulate(inst, Schedule(waits=waits))
    waits[3][0] = -5  # a later one is not named
    with pytest.raises(ScheduleError, match=r"^packet 2: negative wait$"):
        simulate(inst, Schedule(waits=waits))


def test_check_bounds():
    inst = shared_path_instance(1, 4)
    sched = Schedule(waits=[[0, 1, 0, 0, 0]])
    trace = simulate(inst, sched)
    ok = check(trace, CheckRequirements(
        capacity=1, makespan_bound=5, buffer_bound=1, edge_wait_bound=1
    ))
    assert ok.ok
    tight = check(trace, CheckRequirements(capacity=1, makespan_bound=4))
    assert not tight.ok
    waity = check(trace, CheckRequirements(capacity=1, edge_wait_bound=0))
    assert not waity.ok


def test_check_names_the_least_offending_cell_and_wait():
    # the first offender in replay order is neither the least cell nor the least wait
    inst = shared_path_instance(3, 4)
    trace = simulate(inst, Schedule(waits=[[1, 0, 2, 3, 0], [0, 1, 0, 0, 0], [0] * 5]))
    assert [key for key, v in trace.loads.items() if v > 1] == [("e1", 3), ("e0", 1)]
    (load,) = check(trace, CheckRequirements(capacity=1)).results
    assert (load.passed, load.detail) == (False, "edge e0 carries 2 packets at slot 1")
    inst = shared_path_instance(1, 12)
    waits = [0] * 13
    waits[2], waits[10] = 2, 3
    trace = simulate(inst, Schedule(waits=[waits]))
    assert list(trace.edge_waits) == [(0, "e2"), (0, "e10")]
    _, wait = check(trace, CheckRequirements(edge_wait_bound=1)).results
    assert (wait.passed, wait.detail) == (False, "packet 0 waits 3 slots before edge e10")


def test_csv_rows_and_summary(fig1):
    trace = simulate(fig1, zero_wait(fig1))
    rows = loads_csv_rows(trace)
    assert rows == sorted(rows)
    assert ("e4", 2, 2) in rows
    arr = arrivals_csv_rows(trace)
    assert arr == [(0, 3), (1, 4), (2, 3)]


def test_makespan_at_least_max_c_d(fig1):
    s = stats(fig1)
    trace = simulate(fig1, zero_wait(fig1))
    assert trace.makespan >= max(s.congestion, s.dilation)


# --- the event-driven replay against the slot-by-slot reference -------------

def _loops_instance() -> Instance:
    """Paths that revisit their own source, pass their own sink, or end where they began."""
    edges = [
        Edge("ab", "a", "b"), Edge("ba", "b", "a"), Edge("ac", "a", "c"),
        Edge("cd", "c", "d"), Edge("dc", "d", "c"), Edge("ce", "c", "e"),
        Edge("ca", "c", "a"),
    ]
    paths = [
        ["ab", "ba", "ac", "cd"],        # back through its source a
        ["ac", "cd", "dc", "ce"],        # through c twice
        ["cd", "dc", "ce"],              # back through its source c
        ["ab", "ba", "ac", "ca"],        # ends at its source a
        ["ac", "ce"],                    # shares ac and ce with the others
        ["ba", "ac", "cd", "dc"],        # passes its sink c before the end
    ]
    return Instance(nodes={"a", "b", "c", "d", "e"}, edges=edges, paths=paths)


def _random_waits(rng: random.Random, instance: Instance) -> list[list[int]]:
    """Mostly zero (so packets collide), some short and some long waits, sink parking."""
    rows = []
    for path in instance.paths:
        row = []
        for _ in range(len(path) + 1):
            roll = rng.random()
            row.append(0 if roll < 0.6 else rng.randint(1, 3) if roll < 0.9 else rng.randint(20, 120))
        rows.append(row)
    return rows


def _assert_same_trace(instance: Instance, sched: Schedule, capacity: int = 1) -> None:
    fast = simulate(instance, sched, capacity=capacity)
    slow = stepped_simulation(instance, sched, capacity=capacity)
    for name in (
        "loads", "arrivals", "crossing_slots", "edge_waits",
        "capacity", "makespan", "max_load", "max_occupancy", "max_edge_wait",
    ):
        assert getattr(fast, name) == getattr(slow, name), name
    assert type(fast.loads) is dict
    requirements = CheckRequirements(
        capacity=1,
        makespan_bound=slow.makespan - 1,
        buffer_bound=max(slow.max_occupancy - 1, 0),
        edge_wait_bound=max(slow.max_edge_wait - 1, 0),
    )
    assert check(fast, requirements) == check(slow, requirements)


@pytest.mark.parametrize("seed", range(40))
def test_simulate_matches_stepper_on_random_schedules(seed):
    rng = random.Random(f"{seed}/cross-check")
    for instance in (
        generate_random_instance(seed, max_packets=8, max_length=12),
        _loops_instance(),
        shared_path_instance(rng.randint(2, 6), rng.randint(1, 9)),
    ):
        _assert_same_trace(instance, Schedule(waits=_random_waits(rng, instance)), capacity=2)


def test_simulate_matches_stepper_on_zero_and_sink_only_waits():
    instance = _loops_instance()
    zero = zero_wait(instance)
    _assert_same_trace(instance, zero)
    parked = Schedule(waits=[row[:-1] + [10**6] for row in zero.waits])
    _assert_same_trace(instance, parked)
    assert simulate(instance, parked).makespan == simulate(instance, zero).makespan


def _repeating_instance() -> Instance:
    """`_loops_instance` with two paths that repeat edges, which replay does not refuse."""
    loops = _loops_instance()
    paths = loops.paths + [
        ["ac", "cd", "dc", "cd", "dc", "ce"],  # cd and dc twice, each after a node inside the path
        ["ab", "ba", "ab", "ba", "ac"],        # ab and ba twice, back through its source a
    ]
    return Instance(nodes=loops.nodes, edges=loops.edges, paths=paths)


def _assert_same_edge_waits(instance: Instance, sched: Schedule) -> None:
    trace = simulate(instance, sched)
    slow = stepped_simulation(instance, sched)
    # the maximum is read first, from the per-packet table alone
    assert trace.max_edge_wait == max(trace.edge_waits.values(), default=0) == slow.max_edge_wait
    assert trace.edge_waits == slow.edge_waits
    # packet order, then path order: the stepper charges each packet's waits
    # in the order it makes them, so a stable sort by packet gives that order
    assert list(trace.edge_waits) == sorted(slow.edge_waits, key=itemgetter(0))


def test_waits_before_each_visit_of_an_edge_are_summed():
    instance = _repeating_instance()
    waits = [[0] * (len(p) + 1) for p in instance.paths]
    waits[6][1], waits[6][3] = 2, 5  # at c before both visits of cd
    waits[6][4] = 1                  # at d before the second visit of dc
    waits[7][2], waits[7][4] = 3, 4  # at its source a: parking
    waits[7][3] = 6                  # at b before the second visit of ba
    trace = simulate(instance, Schedule(waits=waits))
    assert trace.edge_waits == {(6, "cd"): 7, (6, "dc"): 1, (7, "ba"): 6}
    assert trace.max_edge_wait == 7
    _assert_same_edge_waits(instance, Schedule(waits=waits))


def test_edge_waits_match_the_stepper_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        instance=st.one_of(
            st.builds(generate_random_instance, st.integers(0, 10**6), max_packets=st.just(8), max_length=st.just(12)),
            st.just(_repeating_instance()),
        ),
        data=st.data(),
    )
    def agree(instance, data):
        waits = [
            data.draw(st.lists(st.sampled_from([0, 0, 1, 2, 5]), min_size=len(p) + 1, max_size=len(p) + 1))
            for p in instance.paths
        ]
        _assert_same_edge_waits(instance, Schedule(waits=waits))

    agree()


def test_simulate_matches_stepper_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 10**6), data=st.data())
    def agree(seed, data):
        instance = generate_random_instance(seed, max_packets=6, max_length=10)
        waits = [
            data.draw(st.lists(st.integers(0, 60), min_size=len(p) + 1, max_size=len(p) + 1))
            for p in instance.paths
        ]
        _assert_same_trace(instance, Schedule(waits=waits))

    agree()


def test_crossing_slots_match_the_replay_and_invert_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(seed=st.integers(0, 10**6), data=st.data())
    def agree(seed, data):
        instance = generate_random_instance(seed, max_packets=6, max_length=24)
        waits = [
            data.draw(st.lists(st.integers(0, 10**9), min_size=len(p) + 1, max_size=len(p) + 1))
            for p in instance.paths
        ]
        schedule = Schedule(waits=waits)
        trace = simulate(instance, schedule)
        for packet, row in enumerate(waits):
            slots = schedule.crossing_slots(packet)
            assert slots == trace.crossing_slots[packet]
            assert waits_from_slots(slots, row[-1]) == row

    agree()


HUGE = 10**9


def _huge_wait_case():
    """Packet 0 waits 10^9 slots before e2; packet 1 overtakes it through that buffer."""
    instance = shared_path_instance(2, 5)
    return instance, Schedule(waits=[[0, 0, HUGE, 0, 0, 0], [1, 0, 0, 0, 0, 0]])


def test_huge_wait_replays_in_path_length_time():
    instance, sched = _huge_wait_case()
    start = time.perf_counter()
    trace = simulate(instance, sched)
    report = check(trace, CheckRequirements(
        capacity=1, makespan_bound=HUGE + 5, buffer_bound=2, edge_wait_bound=HUGE,
    ))
    elapsed = time.perf_counter() - start
    assert report.ok, report
    assert trace.makespan == HUGE + 5
    assert trace.arrivals == [HUGE + 5, 6]
    assert trace.edge_waits == {(0, "e2"): HUGE}
    assert trace.max_edge_wait == HUGE
    assert trace.max_occupancy == 2  # packet 1 passes through e2's buffer
    assert [r.detail for r in report.results] == [
        "max load 1 <= 1",
        f"makespan {HUGE + 5} vs bound {HUGE + 5}",
        "max occupancy 2",
        f"max per-edge wait {HUGE} <= {HUGE}",
    ]
    assert elapsed < 0.5


# --- check and the CSV rows against full scans --------------------------------

def _full_scan_results(trace: SimulationTrace, req: CheckRequirements) -> dict[str, CheckResult]:
    """The load and edge-wait verdicts as a scan of every cell and every wait finds them."""
    cap = req.capacity if req.capacity is not None else trace.capacity
    cell = min((et for et, v in trace.loads.items() if v > cap), default=None)
    if cell is not None:
        detail = f"edge {cell[0]} carries {trace.loads[cell]} packets at slot {cell[1]}"
    else:
        detail = f"max load {max(trace.loads.values())} <= {cap}"
    results = {"load": CheckResult("load", cell is None, detail)}
    if req.edge_wait_bound is not None:
        # the verdict is the maximum's, as for every bound: a negative bound
        # fails a schedule with no interior wait, which has no pair to name
        top = max(trace.edge_waits.values(), default=0)
        passed = top <= req.edge_wait_bound
        bad = min((ie for ie, v in trace.edge_waits.items() if v > req.edge_wait_bound), default=None)
        if bad is not None:
            detail = f"packet {bad[0]} waits {trace.edge_waits[bad]} slots before edge {bad[1]}"
        else:
            detail = f"max per-edge wait {top} {'<=' if passed else '>'} {req.edge_wait_bound}"
        results["edge_wait"] = CheckResult("edge_wait", passed, detail)
    return results


def _serialized_waits(rng: random.Random, instance: Instance) -> list[list[int]]:
    """Random waits, each packet leaving after the one before arrives: load 1 everywhere."""
    rows, free = [], 0
    for path in instance.paths:
        row = [free] + [rng.choice((0, 0, 1, 4)) for _ in path]
        rows.append(row)
        free += sum(row) + len(path)
    return rows


@pytest.mark.parametrize("seed", range(12))
def test_check_and_csv_rows_match_full_scans(seed):
    rng = random.Random(f"{seed}/full-scan")
    instances = [
        _loops_instance(),
        generate_random_instance(f"{seed}/full-scan", max_packets=8, max_length=16),
        shared_path_instance(rng.randint(2, 5), rng.randint(11, 14)),  # e10 sorts before e2
    ]
    seen = set()
    for instance in instances:
        for waits in (_random_waits(rng, instance), _serialized_waits(rng, instance), zero_wait(instance).waits):
            trace = simulate(instance, Schedule(waits=waits))
            rows = loads_csv_rows(trace)
            assert rows == sorted((edge, slot, v) for (edge, slot), v in trace.loads.items())
            top = trace.max_edge_wait
            for capacity in (1, 2, 3):
                for bound in (top - 1, top, top + 1):
                    req = CheckRequirements(capacity=capacity, edge_wait_bound=bound)
                    results = {r.name: r for r in check(trace, req).results}
                    assert results == _full_scan_results(trace, req)
                    seen.update((name, r.passed) for name, r in results.items())
    # both verdicts of both checks were compared
    assert seen == {("load", True), ("load", False), ("edge_wait", True), ("edge_wait", False)}


class _CountingDict(dict):
    """A dict that counts its `items()` calls: a scan of every cell calls it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.items_calls = 0

    def items(self):
        self.items_calls += 1
        return super().items()


def _counted_trace(instance: Instance, waits: list[list[int]]) -> SimulationTrace:
    """A trace whose tally and edge waits count their `items()` calls.

    A scan of every cell reads the tally's items once: a flat tally is the
    `loads` dict itself, and a per-edge one is read once to build `loads`.
    """
    trace = simulate(instance, Schedule(waits=waits))
    counted = dataclasses.replace(trace, _tally=_CountingDict(trace._tally))
    vars(counted)["edge_waits"] = _CountingDict(trace.edge_waits)
    return counted


def test_a_passing_check_reads_no_cell(monkeypatch):
    instance = shared_path_instance(2, 12)  # 2 crossings per edge: flat unless forced
    for busy_from, per_edge in ((simulator.BUSY_CROSSINGS_PER_EDGE, False), (0, True)):
        monkeypatch.setattr(simulator, "BUSY_CROSSINGS_PER_EDGE", busy_from)
        waits = [[0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0], [30] + [0] * 12]
        trace = _counted_trace(instance, waits)
        assert trace._per_edge is per_edge
        report = check(trace, CheckRequirements(capacity=1, edge_wait_bound=3))
        assert report.ok
        assert [r.detail for r in report.results] == ["max load 1 <= 1", "max per-edge wait 3 <= 3"]
        assert (trace._tally.items_calls, trace.edge_waits.items_calls) == (0, 0)
        assert "loads" not in vars(trace)

        # one bound broken: only its own scan runs, and it names the least offender
        _, wait = check(trace, CheckRequirements(capacity=1, edge_wait_bound=1)).results
        assert (wait.passed, wait.detail) == (False, "packet 0 waits 3 slots before edge e10")
        assert (trace._tally.items_calls, trace.edge_waits.items_calls) == (0, 1)

        # the packets meet on e2 at slot 5 and ride together to the end
        trace = _counted_trace(instance, [[0, 0, 2] + [0] * 10, [2] + [0] * 12])
        load, wait = check(trace, CheckRequirements(capacity=1, edge_wait_bound=3)).results
        assert (load.passed, load.detail) == (False, "edge e10 carries 2 packets at slot 13")
        assert wait.passed
        assert (trace._tally.items_calls, trace.edge_waits.items_calls) == (1, 0)


@pytest.mark.parametrize("seed", range(6))
def test_a_failing_busy_check_names_the_full_scans_cell_without_flattening(seed):
    rng = random.Random(f"{seed}/busy-fail")
    instance = shared_path_instance(16, 12)  # 16 crossings per edge; e10 sorts before e2
    waits = [[i] + [0] * 12 for i in range(16)]  # one packet per slot: load 1 everywhere
    if seed == 0:
        waits[1][0] = 0  # packet 1 leaves with packet 0
    else:
        for i in rng.sample(range(16), 3):  # packets bunch up at random edges
            waits[i][rng.randrange(13)] += rng.randint(1, 3)
    trace = simulate(instance, Schedule(waits=waits))
    assert trace._per_edge
    details = []
    for capacity in (1, 2):
        req = CheckRequirements(capacity=capacity)
        (load,) = check(trace, req).results
        assert "loads" not in vars(trace)
        assert {"load": load} == _full_scan_results(dataclasses.replace(trace), req)
        details.append(load.detail)
    assert details[1] == "max load 2 <= 2"
    assert seed or details[0] == "edge e0 carries 2 packets at slot 1"


# --- the two tallies -------------------------------------------------------------

def _hub_instance(k: int, tail: int) -> Instance:
    """k packets that share one edge, `hub`, each with a private in-edge and tail."""
    nodes, edges, paths = {"a", "b"}, [Edge("hub", "a", "b")], []
    for i in range(k):
        nodes |= {f"s{i}"} | {f"t{i}_{t}" for t in range(tail)}
        edges.append(Edge(f"in{i}", f"s{i}", "a"))
        chain = ["b"] + [f"t{i}_{t}" for t in range(tail)]
        edges += [Edge(f"out{i}_{t}", u, v) for t, (u, v) in enumerate(zip(chain, chain[1:]))]
        paths.append([f"in{i}", "hub"] + [f"out{i}_{t}" for t in range(tail)])
    return Instance(nodes=nodes, edges=edges, paths=paths)


@pytest.mark.parametrize("instance, per_edge", [
    pytest.param(lambda: shared_path_instance(64, 1024), True, id="shared-64x1024"),  # 64 crossings per edge
    pytest.param(lambda: shared_path_instance(30, 32), True, id="shared-30x32"),  # 30 per edge
    pytest.param(lambda: decode_instance(fixture_text("fig1.json")), False, id="fig1"),  # 10 on 7 edges
    pytest.param(
        lambda: generate_random_instance("1/random-mix/0", max_packets=24, max_length=64), False, id="random-mix",
    ),
    pytest.param(lambda: _hub_instance(8, 30), False, id="sparse-hub"),  # under 1 per edge
])
def test_simulate_picks_the_tally_from_the_instance(instance, per_edge):
    instance = instance()
    trace = simulate(instance, zero_wait(instance))
    assert trace._per_edge is per_edge
    assert type(trace.loads) is dict
    assert trace.max_load == max(trace.loads.values())


def test_both_tallies_match_the_stepper_property(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        instance=st.one_of(
            st.builds(shared_path_instance, st.integers(2, 24), st.integers(1, 12)),
            st.builds(generate_random_instance, st.integers(0, 10**6), max_packets=st.just(8), max_length=st.just(12)),
        ),
        data=st.data(),
    )
    def agree(instance, data):
        waits = [
            data.draw(st.lists(st.integers(0, 6), min_size=len(p) + 1, max_size=len(p) + 1))
            for p in instance.paths
        ]
        schedule = Schedule(waits=waits)
        slow = stepped_simulation(instance, schedule)
        for busy_from, per_edge in ((10**9, False), (0, True)):
            monkeypatch.setattr(simulator, "BUSY_CROSSINGS_PER_EDGE", busy_from)
            fast = simulate(instance, schedule)
            assert fast._per_edge is per_edge
            # the slots and arrivals are derived by the one walk both tallies share
            for name in ("loads", "max_load", "arrivals", "crossing_slots", "makespan", "edge_waits"):
                assert getattr(fast, name) == getattr(slow, name), name
            assert type(fast.loads) is dict
            assert loads_csv_rows(fast) == sorted((edge, slot, v) for (edge, slot), v in fast.loads.items())

    agree()


def test_a_negative_edge_wait_bound_fails_on_both_tallies_and_the_stepper(monkeypatch):
    instance = shared_path_instance(2, 3)
    schedule = Schedule(waits=[[0, 0, 0, 0], [1, 0, 0, 0]])  # a source wait only: no edge wait
    slow = stepped_simulation(instance, schedule)
    expected = {
        -1: (False, "max per-edge wait 0 > -1"),
        0: (True, "max per-edge wait 0 <= 0"),
    }
    for busy_from, per_edge in ((10**9, False), (0, True)):
        monkeypatch.setattr(simulator, "BUSY_CROSSINGS_PER_EDGE", busy_from)
        fast = simulate(instance, schedule)
        assert fast._per_edge is per_edge
        assert fast.edge_waits == slow.edge_waits == {}
        for bound, verdict in expected.items():
            req = CheckRequirements(edge_wait_bound=bound)
            for trace in (fast, slow):
                report = check(trace, req)
                _, wait = report.results
                assert (wait.passed, wait.detail) == verdict
                assert report.ok is verdict[0]


def test_an_instance_with_no_crossings_replays_as_before():
    empty = Instance(nodes=set(), edges=[], paths=[])  # 0 >= K * 0 edges: the per-edge tally
    idle = Instance(nodes={"a", "b"}, edges=[Edge("ab", "a", "b")], paths=[])  # flat
    for instance, per_edge in ((empty, True), (idle, False)):
        trace = simulate(instance, Schedule(waits=[]))
        assert trace._per_edge is per_edge
        assert (trace.loads, trace.arrivals, loads_csv_rows(trace)) == ({}, [], [])
        with pytest.raises(ValueError):
            trace.max_load
        with pytest.raises(ValueError):
            check(trace)


@pytest.mark.parametrize("capacity", [1.5, 1.0, 0, -1, True, False, "1", None])
def test_simulate_refuses_a_capacity_that_is_not_a_positive_int(fig1, capacity):
    with pytest.raises(ValueError, match="capacity must be an integer of at least 1"):
        simulate(fig1, zero_wait(fig1), capacity=capacity)


@pytest.mark.parametrize("capacity", [1.5, 0, True])
def test_the_stepper_refuses_what_simulate_refuses(fig1, capacity):
    with pytest.raises(ValueError, match="capacity must be an integer of at least 1"):
        stepped_simulation(fig1, zero_wait(fig1), capacity=capacity)
    assert stepped_simulation(fig1, zero_wait(fig1), capacity=2).capacity == 2


@pytest.mark.parametrize("name", ["capacity", "makespan_bound", "buffer_bound", "edge_wait_bound"])
def test_check_requirements_refuse_what_is_not_an_int(name):
    # a capacity of 1.5 or True used to pass `max load 1 <= 1.5` and print `<= True`
    for value in (1.5, True, "1"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            CheckRequirements(**{name: value})
    # the type only: 0 and -1 stay bounds, which this replay fails but for a
    # per-edge wait of 0, since it waits nowhere but at a source
    trace = simulate(shared_path_instance(2, 3), Schedule(waits=[[0, 0, 0, 0], [1, 0, 0, 0]]))
    for value in (0, -1):
        *_, result = check(trace, CheckRequirements(**{name: value})).results
        assert result.passed is (name == "edge_wait_bound" and value == 0)


def test_simulate_keeps_an_int_capacity(fig1):
    for capacity in (1, 2, 10**12):
        trace = simulate(fig1, zero_wait(fig1), capacity=capacity)
        assert trace.capacity == capacity
        assert check(trace).ok is (capacity >= 2)
