"""Discrete-time store-and-forward execution of a schedule, event by event.

Ground truth for everything the closed-form machinery claims: packets follow
their wait lists literally (wait, then cross one edge per slot), so a
packet's crossing slots are the prefix sums of its waits plus one slot per
edge. One pass over the paths yields per-(edge, slot) loads, arrivals and
crossing slots, in O(total path length) whatever the size of the waits.

The loads are tallied one of two ways, chosen from the instance alone. A
busy instance, whose paths cross each edge `BUSY_CROSSINGS_PER_EDGE` times or
more on average, is tallied per edge as {edge: {slot: load}}: no key tuple is
allocated per crossing, so the garbage collector has nothing to churn, and
the CSV rows need no global sort. Any other instance keeps the flat
{(edge, slot): load} tally, which is cheaper when most edges hold one or two
cells. `SimulationTrace.loads` is the flat view of either.

A packet occupies no buffer while at a node equal to its own source or sink;
everywhere else it sits in its next edge's buffer. The waiting charged per
(packet, edge) is derived from the trace when first read, and the largest
buffer occupancy at a slot boundary, the buffer size the paper bounds, from
a sweep over the stays' endpoints. Replay does not validate the instance.
`oracle.stepped_simulation` is the slot-by-slot reference this module is
checked against.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, islice, repeat
from operator import add, itemgetter

from .instance import Instance
from .schedule import Schedule


# Average crossings per edge from which `simulate` tallies loads per edge.
# Measured crossover (per-edge time over flat time of simulate, check and the
# CSV rows, on capacity-1 shared-path schedules, CPython 3.11): 1.02 at 6
# and 0.90 at 8 crossings per edge on 1024 edges, 1.10 at 8 and 0.85 at 10
# on 256 edges, 0.65 at 64 on either. A replay that reads only `max_load`
# breaks even later, near 30 per edge on instances of about 1,000
# crossings, and gains 21% at 64 x 1024. Small random instances stay
# cheaper flat at every density; under 3% of perfbench's random-mix reach 8.
BUSY_CROSSINGS_PER_EDGE = 8


@dataclass
class SimulationTrace:
    arrivals: list[int]
    capacity: int
    crossing_slots: list[list[int]]
    # the replayed instance, whose paths and nodes locate each stay
    instance: Instance = field(repr=False, compare=False)
    # the replayed schedule, whose waits are charged to edges
    schedule: Schedule = field(repr=False, compare=False)
    # simulate's tally: {edge: {slot: load}} if `_per_edge`, else {(edge, slot): load}
    _tally: dict = field(repr=False)
    _per_edge: bool

    @cached_property
    def loads(self) -> dict[tuple[str, int], int]:
        """(edge, slot) -> packets crossing; a per-edge tally is flattened when first read."""
        if not self._per_edge:
            return self._tally
        return {(edge, slot): v for edge, cells in self._tally.items() for slot, v in cells.items()}

    @property
    def makespan(self) -> int:
        return max(self.arrivals)

    @property
    def max_load(self) -> int:
        if self._per_edge:
            return max(map(max, map(dict.values, self._tally.values())))
        return max(self._tally.values())

    @cached_property
    def edge_waits(self) -> dict[tuple[int, str], int]:
        """(packet, edge) -> slots waited at the interior node before the edge."""
        emap = self.instance.edge_map()
        edge_waits: dict[tuple[int, str], int] = {}
        for i, (path, waits) in enumerate(zip(self.instance.paths, self.schedule.waits)):
            n = len(path)
            # waiting at the source, at the sink or at a node equal to either is parking
            ends = (emap[path[0]].tail, emap[path[-1]].head)
            for p in compress(range(1, n), islice(waits, 1, n)):
                if emap[path[p - 1]].head not in ends:
                    key = (i, path[p])
                    edge_waits[key] = edge_waits.get(key, 0) + waits[p]
        return edge_waits

    @property
    def max_occupancy(self) -> int:
        """Most packets in one edge's buffer at a slot boundary, swept over the stays' endpoints.

        A packet that crossed its p-th edge at slot c_p and crosses the next
        at c_{p+1} sits in that edge's buffer at boundaries c_p .. c_{p+1} - 1.
        """
        emap = self.instance.edge_map()
        events: dict[str, list[tuple[int, int]]] = {}
        for path, slots in zip(self.instance.paths, self.crossing_slots):
            ends = (emap[path[0]].tail, emap[path[-1]].head)
            for p in range(1, len(path)):
                if emap[path[p - 1]].head not in ends:
                    events.setdefault(path[p], []).extend(((slots[p - 1], 1), (slots[p], -1)))
        worst = 0
        for edge_events in events.values():
            held = 0
            for _, step in sorted(edge_events):  # a stay ends before one starts
                held += step
                worst = max(worst, held)
        return worst

    @property
    def max_edge_wait(self) -> int:
        return max(self.edge_waits.values()) if self.edge_waits else 0


def simulate(instance: Instance, schedule: Schedule, capacity: int = 1) -> SimulationTrace:
    """Run the schedule to completion; never enforces anything, only measures.

    The capacity must be an `int` of at least 1 (`bool` refused): `check`
    compares loads with it, so 1.5 would pass a load of 1 and 0 fail every load.
    """
    if type(capacity) is not int or capacity < 1:
        raise ValueError(f"capacity must be an integer of at least 1, got {capacity!r}")
    schedule.validate_shape(instance.paths)
    arrivals: list[int] = []
    crossing: list[list[int]] = []
    per_edge = sum(map(len, instance.paths)) >= BUSY_CROSSINGS_PER_EDGE * len(instance.edges)
    if per_edge:
        tally: dict = defaultdict(dict)
        for path, waits in zip(instance.paths, schedule.waits):
            n = len(path)
            slots = list(map(add, accumulate(islice(waits, n)), range(1, n + 1)))
            crossing.append(slots)
            arrivals.append(slots[-1])
            for edge, slot in zip(path, slots):
                cells = tally[edge]
                cells[slot] = cells.get(slot, 0) + 1
    else:
        loads: dict[tuple[str, int], int] = {}
        for path, waits in zip(instance.paths, schedule.waits):
            n = len(path)
            slots = list(map(add, accumulate(islice(waits, n)), range(1, n + 1)))
            crossing.append(slots)
            arrivals.append(slots[-1])
            for key in zip(path, slots):
                loads[key] = loads.get(key, 0) + 1
        tally = loads
    return SimulationTrace(
        arrivals=arrivals,
        capacity=capacity,
        crossing_slots=crossing,
        instance=instance,
        schedule=schedule,
        _tally=tally,
        _per_edge=per_edge,
    )


@dataclass(frozen=True)
class CheckRequirements:
    capacity: int | None = None       # default: the trace's own capacity
    makespan_bound: int | None = None
    buffer_bound: int | None = None
    edge_wait_bound: int | None = None


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CheckReport:
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)


def check(trace: SimulationTrace, requirements: CheckRequirements | None = None) -> CheckReport:
    """Per-check verdicts of a trace against the requirements.

    The load and edge-wait checks read their bound's maximum first
    (`max_load`, `max_edge_wait`) and look for an offender only when that
    maximum breaks the bound; a failing check names the least offending
    (edge, slot) cell or (packet, edge) pair, so a passing one reads no cell.
    """
    req = requirements or CheckRequirements()
    results: list[CheckResult] = []

    cap = req.capacity if req.capacity is not None else trace.capacity
    top = trace.max_load
    cell = None
    if top > cap:
        cell = min(et for et, v in trace.loads.items() if v > cap)
    if cell is not None:
        edge, slot = cell
        detail = f"edge {edge} carries {trace.loads[cell]} packets at slot {slot}"
    else:
        detail = f"max load {top} <= {cap}"
    results.append(CheckResult("load", cell is None, detail))

    if req.makespan_bound is not None:
        ok = trace.makespan <= req.makespan_bound
        results.append(
            CheckResult("makespan", ok, f"makespan {trace.makespan} vs bound {req.makespan_bound}")
        )
    if req.buffer_bound is not None:
        worst = trace.max_occupancy
        results.append(
            CheckResult("buffer", worst <= req.buffer_bound, f"max occupancy {worst}")
        )
    if req.edge_wait_bound is not None:
        bound = req.edge_wait_bound
        top = trace.max_edge_wait
        bad = None
        if top > bound:  # a negative bound with no waits at all has no offender
            bad = min((ie for ie, v in trace.edge_waits.items() if v > bound), default=None)
        if bad is not None:
            packet, edge = bad
            detail = f"packet {packet} waits {trace.edge_waits[bad]} slots before edge {edge}"
        else:
            detail = f"max per-edge wait {top} <= {bound}"
        results.append(CheckResult("edge_wait", bad is None, detail))

    return CheckReport(results=tuple(results))


def loads_csv_rows(trace: SimulationTrace) -> list[tuple[str, int, int]]:
    """(edge, slot, load) rows ordered by edge id as a string, then by slot (`e10` before `e2`).

    A per-edge tally is walked edge by edge in order, each edge's slots in
    order. A flat one takes two stable in-place sorts, by slot and then by
    edge; the (edge, slot) keys are unique, so either gives the order of
    sorting the whole tuples.
    """
    if trace._per_edge:
        rows: list[tuple[str, int, int]] = []
        tally = trace._tally
        for edge in sorted(tally):
            cells = tally[edge]
            slots = sorted(cells)
            rows += zip(repeat(edge, len(slots)), slots, map(cells.__getitem__, slots))
        return rows
    rows = [(edge, slot, v) for (edge, slot), v in trace.loads.items()]
    rows.sort(key=itemgetter(1))
    rows.sort(key=itemgetter(0))
    return rows


def arrivals_csv_rows(trace: SimulationTrace) -> list[tuple[int, int]]:
    return list(enumerate(trace.arrivals))
