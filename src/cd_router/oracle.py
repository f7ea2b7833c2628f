"""Exact reference answers for small cases.

Two oracles, both kept deliberately separate from the scheduling code paths:
optimal_makespan searches every capacity-1 schedule, and
exhaustive_expectation enumerates waiting draws outcome by outcome, walking
the waiting policy step by step instead of using closed forms. The walkers
below re-derive motion from the policy definition on purpose; they must not
share motion code with the scheduler or the closed-form model.
stepped_simulation replays a schedule one slot at a time over every packet,
recording loads, arrivals, per-edge waiting and buffer occupancy at every
slot boundary: the reference `simulator.simulate` is checked against.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .delay_model import DelayAssignment, Tree
from .instance import Instance, PaddedInstance, require_int, stats
from .schedule import Schedule


class OracleCapacityError(RuntimeError):
    pass


# --- exact optimal makespan at capacity 1 -----------------------------------

def optimal_makespan(
    instance: Instance, horizon: int | None = None, state_cap: int = 10**8
) -> int | None:
    """Minimum makespan over all capacity-1 schedules, or None within horizon.

    Depth-first over per-slot move/wait decisions, move tried first; a state
    reached again no earlier than before is pruned, as is any branch whose
    remaining path or per-edge demand cannot beat the incumbent. A given
    horizon must be an `int` of at least 0 (`bool` refused), and `state_cap`
    an `int` of any value.
    """
    require_int("state_cap", state_cap)
    if horizon is not None:
        require_int("horizon", horizon, 0)
    s = stats(instance)  # raises on invalid
    if horizon is None:
        horizon = s.congestion + s.dilation + s.congestion * s.dilation
    space = horizon
    for path in instance.paths:
        space *= len(path) + 2
        if space > state_cap:
            raise OracleCapacityError("instance too large for oracle")

    paths = [list(p) for p in instance.paths]
    lengths = [len(p) for p in paths]
    k = len(paths)
    floor = max(s.congestion, s.dilation)

    # remaining crossings per edge, maintained incrementally
    demand: dict[str, int] = dict(s.edge_loads)
    best: list[int | None] = [None]
    seen: dict[tuple[int, ...], int] = {}

    def remaining_bound(progress: tuple[int, ...]) -> int:
        by_path = max(lengths[i] - progress[i] for i in range(k))
        by_edge = max(demand.values()) if any(demand.values()) else 0
        return max(by_path, by_edge)

    def advance(progress: tuple[int, ...], slot: int) -> None:
        if best[0] is not None and best[0] == floor:
            return
        if all(progress[i] == lengths[i] for i in range(k)):
            if best[0] is None or slot - 1 < best[0]:
                best[0] = slot - 1
            return
        if slot > horizon:
            return
        lower = slot - 1 + remaining_bound(progress)
        if best[0] is not None and lower >= best[0]:
            return
        prev = seen.get(progress)
        if prev is not None and prev <= slot:
            return
        seen[progress] = slot
        moves: list[int] = []
        taken: set[str] = set()

        def choose(i: int) -> None:
            if i == k:
                if not moves:  # an all-wait slot never helps
                    return
                new_progress = list(progress)
                for j in moves:
                    eid = paths[j][progress[j]]
                    demand[eid] -= 1
                    new_progress[j] += 1
                advance(tuple(new_progress), slot + 1)
                for j in moves:
                    demand[paths[j][progress[j]]] += 1
                return
            if progress[i] < lengths[i]:
                eid = paths[i][progress[i]]
                if eid not in taken:  # move first
                    taken.add(eid)
                    moves.append(i)
                    choose(i + 1)
                    moves.pop()
                    taken.discard(eid)
            choose(i + 1)  # wait

        choose(0)

    advance(tuple([0] * k), 1)
    return best[0]


# --- exhaustive waiting-policy enumeration ----------------------------------

def _policy_waits(tree: Tree, values: list[list[int]]) -> list[int]:
    """Per-node waiting (indices 0..length) the policy issues for given draws.

    Independent reimplementation of the waiting rules: plain blocks put x at
    their first node and budget - x at their last; shifted blocks spend one
    slot before each duty edge, leading duty before position 1 moves to the
    source, trailing duty past the path end lapses.
    """
    length = tree.length
    waits = [0] * (length + 1)
    if tree.kind == "plain":
        for level, lv in enumerate(tree.ladder.levels):
            for block in tree.blocks(level):
                x = values[level][block.index]
                waits[block.start - 1] += x
                waits[block.end] += lv.wait_budget - x
        return waits
    waits[0] += values[0][0]
    for level in range(1, len(tree.ladder.levels)):
        budget = tree.ladder.levels[level].wait_budget
        for block in tree.blocks(level):
            x = values[level][block.index]
            duty = list(block.assigned[:x])
            tail = budget - x
            if tail:
                duty.extend(block.assigned[len(block.assigned) - tail:])
            for pos in duty:
                if pos < 1:
                    waits[0] += 1
                elif pos <= length:
                    waits[pos - 1] += 1
    return waits


def _walk_slots(waits: list[int], length: int) -> list[int]:
    slots = []
    t = 0
    for pos in range(1, length + 1):
        t += waits[pos - 1] + 1
        slots.append(t)
    return slots


@dataclass
class ExhaustiveTable:
    load: dict[tuple[str, int], float]
    crossing: dict[tuple[int, int], dict[int, float]]  # (packet, position) -> law


def exhaustive_expectation(
    padded: PaddedInstance, assignment: DelayAssignment, cap: int = 2**20
) -> ExhaustiveTable:
    """Exact expected loads and crossing laws by brute enumeration.

    Positions sharing the same blocks at every level of the assignment's
    tree are grouped; only the group's blocks are enumerated (other blocks
    cannot influence those positions, which the walker realizes without
    being told). Fixed levels keep their values; with nothing fixed, pass
    `DelayAssignment(tree, n_packets)`. `cap` must be an `int` of any value.
    """
    require_int("cap", cap)
    tree = assignment.tree
    levels = tree.ladder.levels
    n_levels = len(levels)
    frontier = assignment.frontier
    open_levels = list(range(frontier, n_levels))
    outcome_count = 1
    for level in open_levels:
        outcome_count *= levels[level].wait_budget
        if outcome_count > cap:
            raise OracleCapacityError("instance too large for oracle")
    weight = 1.0 / outcome_count

    load: dict[tuple[str, int], float] = {}
    crossing: dict[tuple[int, int], dict[int, float]] = {}
    length = tree.length
    for packet, path in enumerate(padded.padded.paths):
        groups: dict[tuple[int, ...], list[int]] = {}
        for pos in range(1, length + 1):
            key = tuple(tree.block_index(level, pos) for level in range(n_levels))
            groups.setdefault(key, []).append(pos)
        for key, positions in groups.items():
            base_values = [
                [assignment.value(packet, level, b) for b in range(tree.n_blocks(level))]
                if level < frontier else [1] * tree.n_blocks(level)
                for level in range(n_levels)
            ]
            ranges = [range(1, levels[level].wait_budget + 1) for level in open_levels]
            for combo in product(*ranges):
                for level, draw in zip(open_levels, combo):
                    base_values[level][key[level]] = draw
                waits = _policy_waits(tree, base_values)
                slots = _walk_slots(waits, length)
                for pos in positions:
                    slot = slots[pos - 1]
                    eid = path[pos - 1]
                    load[(eid, slot)] = load.get((eid, slot), 0.0) + weight
                    law = crossing.setdefault((packet, pos), {})
                    law[slot] = law.get(slot, 0.0) + weight
    return ExhaustiveTable(load=load, crossing=crossing)


# --- slot-by-slot replay ------------------------------------------------------

@dataclass
class SteppedTrace:
    """What `stepped_simulation` measured; fields as in `simulator.SimulationTrace`.

    `occupancy` maps (edge, slot) to the packets in the edge's buffer at the
    end of the slot; `simulator` keeps only its maximum.
    """

    loads: dict[tuple[str, int], int]
    arrivals: list[int]
    occupancy: dict[tuple[str, int], int]
    edge_waits: dict[tuple[int, str], int]  # (packet, edge) -> slots waited before it
    capacity: int
    crossing_slots: list[list[int]] = field(default_factory=list)

    @property
    def makespan(self) -> int:
        return max(self.arrivals)

    @property
    def max_load(self) -> int:
        return max(self.loads.values())

    @property
    def max_occupancy(self) -> int:
        return max(self.occupancy.values()) if self.occupancy else 0

    @property
    def max_edge_wait(self) -> int:
        return max(self.edge_waits.values()) if self.edge_waits else 0


def stepped_simulation(instance: Instance, schedule: Schedule, capacity: int = 1) -> SteppedTrace:
    """Run the schedule one slot at a time over every packet, O(k * makespan).

    Packets follow their wait lists literally (wait, then cross one edge per
    slot). A packet occupies no buffer while at a node equal to its own source
    or sink; everywhere else it sits in its next edge's buffer, and occupancy
    is recorded at every slot boundary. The capacity is refused as
    `simulate` refuses it: anything but an `int` of at least 1 (`bool` too).
    """
    require_int("capacity", capacity, 1)
    schedule.validate_shape(instance.paths)
    emap = instance.edge_map()
    paths = instance.paths
    k = len(paths)
    node_at: list[list[str]] = []
    for path in paths:
        nodes = [emap[path[0]].tail] + [emap[eid].head for eid in path]
        node_at.append(nodes)

    position = [0] * k
    remaining = [schedule.waits[i][0] for i in range(k)]
    done = [False] * k
    loads: dict[tuple[str, int], int] = {}
    occupancy: dict[tuple[str, int], int] = {}
    edge_waits: dict[tuple[int, str], int] = {}
    arrivals = [0] * k
    crossing: list[list[int]] = [[] for _ in range(k)]

    slot = 0
    while not all(done):
        slot += 1
        for i in range(k):
            if done[i]:
                continue  # arrived packets park at their sink
            if remaining[i] > 0:
                remaining[i] -= 1
                here = node_at[i][position[i]]
                if here != node_at[i][0] and here != node_at[i][-1]:
                    next_edge = paths[i][position[i]]
                    edge_waits[(i, next_edge)] = edge_waits.get((i, next_edge), 0) + 1
                continue
            eid = paths[i][position[i]]
            loads[(eid, slot)] = loads.get((eid, slot), 0) + 1
            crossing[i].append(slot)
            position[i] += 1
            if position[i] == len(paths[i]):
                done[i] = True
                arrivals[i] = slot
            else:
                remaining[i] = schedule.waits[i][position[i]]
        # boundary snapshot: everyone not yet done sits in its next edge's
        # buffer unless the node is its own source/sink
        for i in range(k):
            if done[i]:
                continue
            here = node_at[i][position[i]]
            if here == node_at[i][0] or here == node_at[i][-1]:
                continue
            next_edge = paths[i][position[i]]
            occupancy[(next_edge, slot)] = occupancy.get((next_edge, slot), 0) + 1

    return SteppedTrace(
        loads=loads,
        arrivals=arrivals,
        occupancy=occupancy,
        edge_waits=edge_waits,
        capacity=capacity,
        crossing_slots=crossing,
    )
