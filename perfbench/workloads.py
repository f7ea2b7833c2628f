"""The benchmark's workloads: inputs made from a seed, one op each, output checks.

A pipeline op is `cd-router schedule` without file I/O: decode the instance
JSON, run the pipeline, encode the schedule. A replay op is `cd-router
simulate` without file I/O: decode the schedule JSON, replay it, check it,
render the CSV rows. Every op's output is checked by code here that does not
use the simulator (pipeline) or that knows the expected verdicts (replay).

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is in README.md next to this file.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from cd_router import fixer, instance, schedule, simulator


VARIANTS = ("plain", "buffered")


class Mismatch(Exception):
    """An op's output failed a check."""


def _congestion_dilation(paths: list[list[str]]) -> tuple[int, int]:
    loads: dict[str, int] = {}
    for path in paths:
        for edge in path:
            loads[edge] = loads.get(edge, 0) + 1
    return max(loads.values()), max(len(p) for p in paths)


def _crossings(waits: list[int]) -> list[int]:
    """Crossing slot of each edge: wait at a node, then one slot per edge."""
    slots, t = [], 0
    for w in waits[:-1]:
        t += w + 1
        slots.append(t)
    return slots


# --- pipeline ops ------------------------------------------------------------

@dataclass
class PipelineInput:
    label: str
    text: str  # instance JSON
    variant: str
    seed: str  # fixer seed of the first round; later rounds derive fresh ones
    paths: list[list[str]]
    congestion: int
    dilation: int

    def run(self, round_: int) -> str:
        seed = self.seed if round_ == 0 else f"{self.seed}/r{round_}"
        inst = instance.decode(self.text)
        result = fixer.run_pipeline(inst, fixer.FixerConfig(variant=self.variant, seed=seed))
        return schedule.encode(result.schedule)

    def check(self, text: str) -> tuple[float, str]:
        """(makespan / (C + D), sha256 of the output); raises Mismatch."""
        try:
            doc = json.loads(text)
            waits = [entry["waits"] for entry in doc["packets"]]
            stated = doc["makespan"]
        except (ValueError, KeyError, TypeError) as exc:
            raise Mismatch(f"{self.label}: unreadable schedule: {exc}") from exc
        if len(waits) != len(self.paths):
            raise Mismatch(f"{self.label}: {len(waits)} wait lists for {len(self.paths)} packets")
        for i, (row, path) in enumerate(zip(waits, self.paths)):
            if len(row) != len(path) + 1:
                raise Mismatch(f"{self.label}: packet {i} has {len(row)} waits for {len(path)} edges")
            if any(not isinstance(w, int) or w < 0 for w in row):
                raise Mismatch(f"{self.label}: packet {i} has a negative or non-integer wait")
        sched = schedule.Schedule(waits=waits)
        cells: set[tuple[str, int]] = set()
        makespan = 0
        for i, path in enumerate(self.paths):
            slots = sched.crossing_slots(i)
            for cell in zip(path, slots):
                if cell in cells:
                    raise Mismatch(f"{self.label}: two packets cross edge {cell[0]} at slot {cell[1]}")
                cells.add(cell)
            makespan = max(makespan, slots[-1])
        if stated != makespan:
            raise Mismatch(f"{self.label}: stated makespan {stated} != crossings' {makespan}")
        if makespan < max(self.congestion, self.dilation):
            raise Mismatch(f"{self.label}: makespan {makespan} < max(C, D)")
        ratio = makespan / (self.congestion + self.dilation)
        return ratio, hashlib.sha256(text.encode()).hexdigest()


def _pipeline_inputs(inst: instance.Instance, runs) -> list[PipelineInput]:
    """One input per (label, variant, fixer seed), all sharing one encoding of `inst`."""
    text = instance.encode(inst)
    c, d = _congestion_dilation(inst.paths)
    return [PipelineInput(label, text, v, seed, inst.paths, c, d) for label, v, seed in runs]


def _pipeline_warmup() -> list[PipelineInput]:
    small = instance.shared_path_instance(4, 32)
    return _pipeline_inputs(small, [(f"warmup/{v}", v, "warmup") for v in VARIANTS])


def deep_shared(seed: int, toy: bool):
    """Many packets on one long path: big level workspaces, little resampling."""
    c, d, pairs = (4, 32, 1) if toy else (64, 1024, 6)
    pool = _pipeline_inputs(instance.shared_path_instance(c, d), [
        (f"{v}/C{c}xD{d}/{j}", v, f"{seed}/deep-shared/{j}") for j in range(pairs) for v in VARIANTS
    ])
    return pool, _pipeline_warmup(), 2


def tight_congestion(seed: int, toy: bool):
    """Congestion near the padded length: the resampling loop dominates.

    Buffered runs fix no level at this depth, so their output does not
    depend on the fixer seed; one buffered op per round is enough.
    """
    c, d, seeds = (30, 32, 2) if toy else (30, 32, 128)
    pool = _pipeline_inputs(instance.shared_path_instance(c, d), [
        (f"buffered/C{c}xD{d}", "buffered", f"{seed}/tight"),
        *((f"plain/C{c}xD{d}/{j}", "plain", f"{seed}/tight/{j}") for j in range(seeds)),
    ])
    return pool, _pipeline_warmup(), 1


def random_mix(seed: int, toy: bool):
    """Many small random instances with shallow ladders: fixed per-call costs."""
    count = 10 if toy else 1000
    pool = []
    for i in range(count):
        inst = instance.generate_random_instance(
            f"{seed}/random-mix/{i}", max_packets=24, max_length=64
        )
        runs = [(f"{v}/random{i}", v, f"{seed}/random-mix/{i}") for v in VARIANTS]
        pool += _pipeline_inputs(inst, runs)
    return pool, _pipeline_warmup(), 2


# --- replay ops --------------------------------------------------------------

@dataclass
class ReplayInput:
    label: str
    text: str  # schedule JSON
    instance: instance.Instance
    requirements: simulator.CheckRequirements
    verdicts: dict[str, bool]  # expected check name -> passed
    load_detail: str | None  # expected detail of a failing load check
    arrivals: list[int]
    congestion: int
    dilation: int

    def run(self, round_: int):
        sched = schedule.decode(self.text)
        trace = simulator.simulate(self.instance, sched, capacity=1)
        report = simulator.check(trace, self.requirements)
        loads = simulator.loads_csv_rows(trace)
        arrivals = simulator.arrivals_csv_rows(trace)
        return trace.makespan, report, loads, arrivals

    def check(self, out) -> tuple[float | None, str]:
        """(makespan / (C + D) of a feasible schedule, sha256 of the CSV rows)."""
        makespan, report, loads, arrivals = out
        got = {r.name: r.passed for r in report.results}
        if got != self.verdicts:
            raise Mismatch(f"{self.label}: verdicts {got}, expected {self.verdicts}")
        if self.load_detail is not None:
            detail = next(r.detail for r in report.results if r.name == "load")
            if detail != self.load_detail:
                raise Mismatch(f"{self.label}: load check says {detail!r}, expected {self.load_detail!r}")
        if [a for _, a in arrivals] != self.arrivals or makespan != max(self.arrivals):
            raise Mismatch(f"{self.label}: arrivals differ from the schedule's")
        if sum(v for _, _, v in loads) != sum(len(p) for p in self.instance.paths):
            raise Mismatch(f"{self.label}: load rows do not count every crossing")
        rows = "".join(f"{e},{s},{v}\n" for e, s, v in loads)
        rows += "".join(f"{i},{a}\n" for i, a in arrivals)
        ratio = makespan / (self.congestion + self.dilation) if report.ok else None
        return ratio, hashlib.sha256(rows.encode()).hexdigest()


def _replay_input(label, inst, waits, verdicts=None, load_detail=None) -> ReplayInput:
    arrivals = [_crossings(w)[-1] for w in waits]
    interior = [x for w in waits for x in w[1:-1]]
    doc = {
        "packets": [{"waits": w, "arrival": a} for w, a in zip(waits, arrivals)],
        "makespan": max(arrivals),
    }
    c, d = _congestion_dilation(inst.paths)
    return ReplayInput(
        label=label,
        text=json.dumps(doc),
        instance=inst,
        requirements=simulator.CheckRequirements(
            capacity=1, makespan_bound=max(arrivals), edge_wait_bound=max(interior, default=0)
        ),
        verdicts=verdicts or {"load": True, "makespan": True, "edge_wait": True},
        load_detail=load_detail,
        arrivals=arrivals,
        congestion=c,
        dilation=d,
    )


def _dense_waits(rng: random.Random, c: int, d: int, steps: int) -> list[list[int]]:
    """Capacity-1 schedule of c packets on one d-edge path.

    Packet j crosses edge p at p + j + c * m_j(p), where m_j counts the
    packet's wait steps before p; slots on one edge differ mod c, so no two
    packets meet. Each step is a wait of c slots at a random interior node.
    """
    waits = []
    for j in range(c):
        row = [j] + [0] * d
        for _ in range(steps):
            row[rng.randint(1, d - 1)] += c
        waits.append(row)
    return waits


def _hub_instance(rng: random.Random, k: int, max_tail: int) -> instance.Instance:
    """k packets that share exactly one edge, `hub`; every other edge is private.

    Packet 0 has the longest tail, so the dilation is max_tail + 2 whatever the seed.
    """
    nodes, edges, paths = {"a", "b"}, [instance.Edge("hub", "a", "b")], []
    for i in range(k):
        nodes.add(f"s{i}")
        edges.append(instance.Edge(f"in{i}", f"s{i}", "a"))
        path, tail = [f"in{i}", "hub"], "b"
        for t in range(max_tail if i == 0 else rng.randint(1, max_tail)):
            nodes.add(f"t{i}_{t}")
            edges.append(instance.Edge(f"out{i}_{t}", tail, f"t{i}_{t}"))
            path.append(f"out{i}_{t}")
            tail = f"t{i}_{t}"
        paths.append(path)
    return instance.Instance(nodes=nodes, edges=edges, paths=paths)


def _hub_waits(rng: random.Random, inst: instance.Instance) -> list[list[int]]:
    """Distinct source waits: packets take the hub one at a time."""
    order = list(range(inst.n_packets))
    rng.shuffle(order)
    return [[order[i]] + [0] * len(p) for i, p in enumerate(inst.paths)]


def _sparse(rng: random.Random, label: str, k: int, wait: int) -> ReplayInput:
    """A few packets, one of which waits `wait` slots at one interior node."""
    inst = _hub_instance(rng, k, 30)
    waits = _hub_waits(rng, inst)
    q = rng.randrange(k)
    waits[q][rng.randint(1, len(inst.paths[q]) - 1)] = wait
    return _replay_input(label, inst, waits)


def _colliding(rng: random.Random, k: int) -> ReplayInput:
    """One packet copies another's source wait, so both take the hub together."""
    inst = _hub_instance(rng, k, 30)
    waits = _hub_waits(rng, inst)
    a, b = rng.sample(range(k), 2)
    waits[a][0] = waits[b][0]
    slot = waits[b][0] + 2
    return _replay_input(
        "colliding", inst, waits,
        verdicts={"load": False, "makespan": True, "edge_wait": True},
        load_detail=f"edge hub carries 2 packets at slot {slot}",
    )


def replay(seed: int, toy: bool):
    """Verification only: dense, long-horizon sparse, and one colliding schedule."""
    rng = random.Random(f"{seed}/replay")
    c, d, steps = (8, 64, 4) if toy else (64, 1024, 58)
    dense = instance.shared_path_instance(c, d)
    # the sparse waits are jittered by only a few percent, so the cost of a
    # round, which follows k * makespan in today's stepper, hardly moves
    waits_scale = 1_000 if toy else 100_000
    # two dense schedules, so that the median op is a dense replay
    pool = [
        *(_replay_input(f"dense/C{c}xD{d}/{j}", dense, _dense_waits(rng, c, d, steps))
          for j in range(2)),
        _sparse(rng, "sparse/1x", 8, rng.randrange(waits_scale, waits_scale * 21 // 20)),
        _sparse(rng, "sparse/5x", 8, rng.randrange(waits_scale * 5, waits_scale * 21 // 4)),
        _colliding(rng, 8),
    ]
    warmup = [_sparse(random.Random("warmup"), "warmup", 4, 10)]
    return pool, warmup, len(pool)


WORKLOADS = {
    "deep-shared": deep_shared,
    "tight-congestion": tight_congestion,
    "random-mix": random_mix,
    "replay": replay,
}
