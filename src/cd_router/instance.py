"""Routing instances: directed multigraphs with one fixed edge path per packet.

The network and every packet's route are inputs; schedulers only choose
waiting times. Two numbers summarize hardness: congestion (most paths sharing
one edge) and dilation (longest path). Padding gives every path the same
power-of-two length, which the dissection machinery requires; the appended
dummy edges are private, so the scheduler only counts them.
"""
from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain


class InvalidInstanceError(ValueError):
    """Raised when an operation needs a valid instance and got something else.

    `violations` holds every violation `validate` found, when it was the
    reason; it is empty for a document that does not decode.
    """

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass
class Instance:
    nodes: set[str]
    edges: list[Edge]
    paths: list[list[str]]  # per packet, a list of edge ids

    def edge_map(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    @property
    def n_packets(self) -> int:
        return len(self.paths)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class InstanceStats:
    congestion: int
    dilation: int
    edge_loads: dict[str, int] = field(compare=False, default_factory=dict)


def validate(instance: Instance) -> ValidationReport:
    """Check structural sanity; returns every violation, not just the first."""
    problems: list[str] = []
    emap: dict[str, Edge] = {}
    for e in instance.edges:
        if e.id in emap:
            problems.append(f"edge {e.id}: duplicate edge id")
        emap[e.id] = e
        for endpoint in (e.tail, e.head):
            if endpoint not in instance.nodes:
                problems.append(f"edge {e.id}: unknown node {endpoint}")
    if not instance.paths:
        problems.append("instance has no packets")
    for i, path in enumerate(instance.paths):
        if not path:
            problems.append(f"path {i}: empty")
            continue
        used: set[str] = set()
        prev_head: str | None = None
        for eid in path:
            edge = emap.get(eid)
            if edge is None:
                problems.append(f"path {i}: unknown edge {eid}")
                prev_head = None
                continue
            if eid in used:
                problems.append(f"path {i}: edge {eid} repeated")
            used.add(eid)
            if prev_head is not None and edge.tail != prev_head:
                problems.append(
                    f"path {i}: edge {eid} tail {edge.tail} does not continue from {prev_head}"
                )
            prev_head = edge.head
    return ValidationReport(ok=not problems, violations=tuple(problems))


def stats(instance: Instance) -> InstanceStats:
    """Validate, then `measure`; raises InvalidInstanceError on a violation."""
    report = validate(instance)
    if not report.ok:
        raise InvalidInstanceError("; ".join(report.violations), report.violations)
    return measure(instance)


def measure(instance: Instance) -> InstanceStats:
    """Congestion, dilation and edge loads of an instance already validated."""
    loads = Counter(chain.from_iterable(instance.paths))
    return InstanceStats(
        congestion=max(loads.values()),
        dilation=max(len(p) for p in instance.paths),
        edge_loads=loads,
    )


def _next_power_of_two(n: int) -> int:
    return 1 if n <= 1 else 1 << (n - 1).bit_length()


@dataclass
class PaddedInstance:
    """Original instance, viewed with every path padded to one length.

    Every path is extended with a private chain of dummy edges up to `length`
    (a power of two >= max(congestion, dilation)), so dummy edges always have
    congestion 1 and real edges keep their loads. A dummy position never
    shares its edge, so the scheduler counts dummy positions (`length` minus
    a path's original length) and builds none of them.

    The explicit padded instance, `padded`, and its `dummy_edge_ids` are built
    on first read, for the oracles and for inspection. Dummy ids are
    `__pad_n{packet}_{k}` and `__pad_e{packet}_{k}`; when a real node or edge
    id equals one of them, every dummy takes the prefix `__pad_` with as many
    more underscores as make it a prefix of no real id.
    """

    base: Instance
    length: int
    original_lengths: tuple[int, ...]
    stats: InstanceStats  # of `base`, computed once while padding

    @cached_property
    def _chain(self) -> tuple[Instance, frozenset[str]]:
        base = self.base
        emap = base.edge_map()
        padded, dummies = _extended(base, emap, self.length, "__pad_")
        # one dummy node per dummy edge: fewer new nodes means a real node id was taken
        if len(padded.nodes) < len(base.nodes) + len(dummies) or not dummies.isdisjoint(emap):
            prefix = "__pad_"
            while any(x.startswith(prefix) for x in chain(base.nodes, emap)):
                prefix += "_"
            padded, dummies = _extended(base, emap, self.length, prefix)
        return padded, frozenset(dummies)

    @property
    def padded(self) -> Instance:
        """Every path extended by its dummy chain, as an explicit instance."""
        return self._chain[0]

    @property
    def dummy_edge_ids(self) -> frozenset[str]:
        return self._chain[1]


def _extended(
    instance: Instance, emap: dict[str, Edge], target: int, prefix: str
) -> tuple[Instance, set[str]]:
    """Every path extended to `target` edges by a private dummy chain, and the dummy edge ids."""
    nodes = set(instance.nodes)
    edges = list(instance.edges)
    paths: list[list[str]] = []
    dummies: set[str] = set()
    for i, path in enumerate(instance.paths):
        new_path = list(path)
        tail_node = emap[path[-1]].head
        for extra in range(target - len(path)):
            nid = f"{prefix}n{i}_{extra}"
            eid = f"{prefix}e{i}_{extra}"
            nodes.add(nid)
            edges.append(Edge(eid, tail_node, nid))
            dummies.add(eid)
            new_path.append(eid)
            tail_node = nid
        paths.append(new_path)
    return Instance(nodes=nodes, edges=edges, paths=paths), dummies


def pad(instance: Instance) -> PaddedInstance:
    """Validate, count, and fix the padded length D'; no dummy is built."""
    s = stats(instance)  # raises on invalid
    return PaddedInstance(
        base=instance,
        length=_next_power_of_two(max(s.congestion, s.dilation)),
        original_lengths=tuple(len(p) for p in instance.paths),
        stats=s,
    )


# --- JSON round trip ------------------------------------------------------

def encode(instance: Instance, extra: dict | None = None) -> str:
    """Serialize with deterministic field ordering (byte-stable for equal inputs)."""
    doc = {
        "nodes": sorted(instance.nodes),
        "edges": [{"id": e.id, "tail": e.tail, "head": e.head} for e in instance.edges],
        "paths": [list(p) for p in instance.paths],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def decode(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    try:
        arrays = {key: doc[key] for key in ("nodes", "edges", "paths")}
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed instance document: {exc}") from exc
    # a string is iterable too, and would split into one-character ids
    for key, value in arrays.items():
        if type(value) is not list:
            raise InvalidInstanceError(f"malformed instance document: {key} is not a JSON array")
    for i, p in enumerate(arrays["paths"]):
        if type(p) is not list:
            raise InvalidInstanceError(f"malformed instance document: path {i} is not a JSON array")
    try:
        fields = [(e["id"], e["tail"], e["head"]) for e in arrays["edges"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInstanceError(f"malformed instance document: {exc}") from exc
    # ids are taken as they are: 1 and "1" are different values, and null is no id
    for x in chain(arrays["nodes"], chain.from_iterable(fields), chain.from_iterable(arrays["paths"])):
        if type(x) is not str:
            raise InvalidInstanceError(f"malformed instance document: id {x!r} is not a JSON string")
    return Instance(
        nodes=set(arrays["nodes"]),
        edges=[Edge(*f) for f in fields],
        paths=arrays["paths"],
    )


# --- generators used by bench and the test suites -------------------------

def shared_path_instance(congestion: int, dilation: int) -> Instance:
    """All packets ride one common path: the classic capacity-1 bottleneck."""
    nodes = {f"n{i}" for i in range(dilation + 1)}
    edges = [Edge(f"e{i}", f"n{i}", f"n{i + 1}") for i in range(dilation)]
    path = [e.id for e in edges]
    return Instance(nodes=nodes, edges=edges, paths=[list(path) for _ in range(congestion)])


def generate_random_instance(
    seed: int | str,
    max_packets: int = 8,
    max_length: int = 32,
    n_nodes: int | None = None,
) -> Instance:
    """Random multigraph + per-packet self-avoiding edge walks.

    Shared edges (hence congestion) arise because all walks draw from one
    modest edge pool. Every produced instance validates.
    """
    rng = random.Random(f"{seed}/instance")
    k = rng.randint(2, max(2, max_packets))
    nn = n_nodes if n_nodes is not None else rng.randint(4, 24)
    node_ids = [f"n{i}" for i in range(nn)]
    n_edges = max(nn + 2, int(nn * rng.uniform(1.5, 3.0)))
    edges: list[Edge] = []
    out: dict[str, list[Edge]] = {n: [] for n in node_ids}
    for j in range(n_edges):
        tail, head = rng.choice(node_ids), rng.choice(node_ids)
        e = Edge(f"e{j}", tail, head)
        edges.append(e)
        out[tail].append(e)
    starts = [n for n in node_ids if out[n]]
    paths: list[list[str]] = []
    for _ in range(k):
        target = rng.randint(1, max(1, max_length))
        path: list[str] = []
        node = rng.choice(starts)
        used: set[str] = set()
        while len(path) < target:
            options = [e for e in out[node] if e.id not in used]
            if not options:
                break
            e = rng.choice(options)
            path.append(e.id)
            used.add(e.id)
            node = e.head
        paths.append(path)
    return Instance(nodes=set(node_ids), edges=edges, paths=paths)
