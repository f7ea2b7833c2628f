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
from json.encoder import encode_basestring_ascii


class InvalidInstanceError(ValueError):
    """Raised when an operation needs a valid instance and got something else.

    `violations` holds every violation `validate` found, when it was the
    reason; it is empty for a document that does not decode.
    """

    def __init__(self, message: str, violations: tuple[str, ...] = ()):
        super().__init__(message)
        self.violations = violations


def require_int(name: str, value: object, least: int | None = None) -> None:
    """Refuse, with ValueError, a value that is not an `int` (`bool` too) or is below `least`."""
    if type(value) is not int or least is not None and value < least:
        floor = "" if least is None else f" of at least {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")


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

def _array(items, indent: str) -> str:
    """A JSON array of encoded items as `indent=2` lays it out, its items at `indent`."""
    if not items:
        return "[]"
    sep = ",\n" + indent
    return f"[\n{indent}{sep.join(items)}\n{indent[2:]}]"


def encode(instance: Instance, extra: dict | None = None) -> str:
    """The instance document, byte for byte as `json.dumps(doc, indent=2) + "\n"` writes it.

    `doc` is {"nodes": sorted ids, "edges": [{"id", "tail", "head"}, ...],
    "paths": [[edge id, ...], ...]}, followed by the members of `extra`.
    With `indent`, `json` falls back to its pure-Python encoder; here each id
    goes through `encode_basestring_ascii`, the C function that encoder calls
    for a string, and joins make the layout. `extra` goes through `json.dumps`
    itself. Raises InvalidInstanceError for an id that is not a string, which
    `decode` would refuse, and ValueError for an `extra` key that would
    overwrite one of the instance's own arrays.
    """
    taken = sorted(extra.keys() & {"nodes", "edges", "paths"}) if extra else []
    if taken:
        raise ValueError(f"extra key {taken[0]!r} would overwrite the instance's own {taken[0]}")
    try:
        nodes = _array(list(map(encode_basestring_ascii, sorted(instance.nodes))), "    ")
        edges = _array([
            f'{{\n      "id": {encode_basestring_ascii(e.id)},\n'
            f'      "tail": {encode_basestring_ascii(e.tail)},\n'
            f'      "head": {encode_basestring_ascii(e.head)}\n    }}'
            for e in instance.edges
        ], "    ")
        paths = _array([_array(list(map(encode_basestring_ascii, p)), "      ") for p in instance.paths], "    ")
    except TypeError:
        for x in chain(instance.nodes, *((e.id, e.tail, e.head) for e in instance.edges), *instance.paths):
            if not isinstance(x, str):
                raise InvalidInstanceError(f"id {x!r} is not a string") from None
        raise
    members = f'  "nodes": {nodes},\n  "edges": {edges},\n  "paths": {paths}'
    if extra:
        # json.dumps({...}, indent=2) is "{\n" + its members + "\n}"
        members += ",\n" + json.dumps(extra, indent=2)[2:-2]
    return f"{{\n{members}\n}}\n"


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
    nodes = set(arrays["nodes"])
    if len(nodes) != len(arrays["nodes"]):
        repeated = next(x for x, n in Counter(arrays["nodes"]).items() if n > 1)
        raise InvalidInstanceError(f"malformed instance document: node {repeated} is repeated")
    return Instance(
        nodes=nodes,
        edges=[Edge(*f) for f in fields],
        paths=arrays["paths"],
    )


# --- generators used by bench and the test suites -------------------------

def shared_path_instance(congestion: int, dilation: int) -> Instance:
    """All packets ride one common path: the classic capacity-1 bottleneck.

    Both sizes must be an `int` of at least 1 (`bool` refused).
    """
    require_int("congestion", congestion, 1)
    require_int("dilation", dilation, 1)
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
    modest edge pool. Every produced instance validates. Bounds, which raise
    ValueError below their least value rather than being clamped:
    `max_packets >= 2` (the packet count is drawn from 2..max_packets),
    `max_length >= 1` (each walk aims at 1..max_length edges and stops early
    at a node with no unused out-edge) and `n_nodes >= 1` (drawn from 4..24
    when None). A bound that is not an `int` (`bool` too) is refused first.
    """
    require_int("max_packets", max_packets)
    require_int("max_length", max_length)
    if n_nodes is not None:
        require_int("n_nodes", n_nodes)
    if max_packets < 2 or max_length < 1 or (n_nodes is not None and n_nodes < 1):
        raise ValueError(
            f"need max_packets >= 2, max_length >= 1 and n_nodes >= 1, "
            f"got {max_packets}, {max_length} and {n_nodes}"
        )
    rng = random.Random(f"{seed}/instance")
    k = rng.randint(2, max_packets)
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
        target = rng.randint(1, max_length)
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
