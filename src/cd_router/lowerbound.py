"""Hard random-permutation instances and the counting argument around them.

The generator builds a fixed gadget graph in which every packet must cross
every critical edge once, in the order given by its own random permutation.
Congestion is n, dilation is 2n+3, and schedules compress to small integer
matrices (one waiting vector per packet), so candidate schedules can be
counted, enumerated, and checked exactly at desk scale.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from . import oracle
from .instance import Edge, Instance, InvalidInstanceError, decode, encode, stats
from .schedule import Schedule

# Per-cell collision probability decays like (15/16)^(n^2/128); this is the
# n^2 coefficient in the exponent, the budget a counting bound must beat.
COLLISION_EXPONENT = math.log2(16.0 / 15.0) / 128.0


@dataclass(frozen=True)
class LowerBoundInstance:
    n: int
    permutations: tuple[tuple[int, ...], ...]
    instance: Instance

    @property
    def path_length(self) -> int:
        return 2 * self.n + 3


def _gadget_path(perm: tuple[int, ...]) -> list[str]:
    """The gadget path that crosses the critical edges in the order `perm`."""
    path = ["s_sp", f"sp_u{perm[0]}", f"crit_{perm[0]}"]
    for prev, nxt in zip(perm, perm[1:]):
        path.append(f"back_{prev}_{nxt}")
        path.append(f"crit_{nxt}")
    path.append(f"back_{perm[-1]}_{len(perm) + 1}")
    path.append("out")
    return path


def generate(n: int, seed: int | str = 0) -> LowerBoundInstance:
    """Gadget with n critical edges; each packet visits them in random order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    nodes = {"s", "sp", "t"}
    nodes.update(f"u{i}" for i in range(1, n + 2))
    nodes.update(f"v{i}" for i in range(1, n + 1))
    edges = [Edge("s_sp", "s", "sp")]
    edges.extend(Edge(f"sp_u{i}", "sp", f"u{i}") for i in range(1, n + 1))
    edges.extend(Edge(f"crit_{i}", f"u{i}", f"v{i}") for i in range(1, n + 1))
    for i in range(1, n + 1):
        for j in range(1, n + 2):
            if j != i:
                edges.append(Edge(f"back_{i}_{j}", f"v{i}", f"u{j}"))
    edges.append(Edge("out", f"u{n + 1}", "t"))

    rng = random.Random(f"{seed}/lowerbound/permutations")
    permutations = []
    for _ in range(n):
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        permutations.append(tuple(perm))

    instance = Instance(nodes=nodes, edges=edges, paths=[_gadget_path(perm) for perm in permutations])
    stats(instance)  # raises InvalidInstanceError on a broken gadget
    return LowerBoundInstance(n=n, permutations=tuple(permutations), instance=instance)


def serialize(lb: LowerBoundInstance) -> str:
    return encode(lb.instance, extra={"permutations": [list(p) for p in lb.permutations]})


def deserialize(text: str) -> LowerBoundInstance:
    instance = decode(text)
    doc = json.loads(text)
    perms = doc.get("permutations")
    if not isinstance(perms, list) or not perms:
        raise InvalidInstanceError("missing permutations sidecar")
    n = len(instance.paths)
    if len(perms) != n:
        raise InvalidInstanceError(f"permutations: {len(perms)} rows for {n} paths")
    # taken as they are: "12", 2.7 and true are no permutation entries
    for i, p in enumerate(perms):
        if type(p) is not list or any(type(x) is not int for x in p) or sorted(p) != list(range(1, n + 1)):
            raise InvalidInstanceError(f"permutations: row {i} is not a permutation of 1..{n}: {p!r}")
    permutations = tuple(map(tuple, perms))
    for i, (path, perm) in enumerate(zip(instance.paths, permutations)):
        if path != _gadget_path(perm):
            raise InvalidInstanceError(f"path {i} is not the gadget path of its permutation {list(perm)}")
    stats(instance)  # raises InvalidInstanceError on a broken gadget
    return LowerBoundInstance(n=n, permutations=permutations, instance=instance)


# --- routing matrices -------------------------------------------------------

def _check_matrix(lb: LowerBoundInstance, matrix: list[list[int]]) -> None:
    n = lb.n
    if len(matrix) != n or any(len(row) != n + 2 for row in matrix):
        raise ValueError(f"matrix must be {n} x {n + 2}")
    if any(w < 0 for row in matrix for w in row):
        raise ValueError("waits must be nonnegative")


def matrix_to_schedule(lb: LowerBoundInstance, matrix: list[list[int]]) -> Schedule:
    """Waits happen only at the source and at the u-nodes; elsewhere zero.

    Column 0 is parking at the source, column j (1 <= j <= n) the wait
    spent just before critical edge j, column n+1 the wait before the exit
    edge. Any schedule on this gadget can be normalized into this shape
    without increasing its makespan.
    """
    _check_matrix(lb, matrix)
    n = lb.n
    waits = []
    for i, perm in enumerate(lb.permutations):
        row = [0] * (2 * n + 4)
        row[0] = matrix[i][0]
        for m, j in enumerate(perm):
            row[2 + 2 * m] = matrix[i][j]
        row[2 * n + 2] = matrix[i][n + 1]
        waits.append(row)
    return Schedule(waits=waits)


def is_candidate(lb: LowerBoundInstance, matrix: list[list[int]], horizon: int) -> bool:
    """Arrives by the horizon with no collision on the entry or exit edge."""
    _check_matrix(lb, matrix)
    entry = [row[0] + 1 for row in matrix]
    arrivals = [sum(row) + lb.path_length for row in matrix]
    if max(arrivals) > horizon:
        return False
    return len(set(entry)) == lb.n and len(set(arrivals)) == lb.n


def count_candidates(lb: LowerBoundInstance, horizon: int, cap: int = 10**7) -> int:
    """Exactly count candidate matrices (entry slots and arrivals distinct).

    Candidacy depends on a row only through its first entry a and its sum
    s <= slack, and C(s - a + n, n) rows share them, independently of the
    permutations. So a candidate is a placement of n non-attacking rooks on
    the cells a <= s, each weighted by its rows, in one of n! packet orders.
    A DP over a, with the set of used sums as a bitmask, sums the weights;
    `cap` bounds its steps, which are counted before any work.
    """
    n = lb.n
    slack = horizon - lb.path_length
    if slack < 0:
        return 0
    size = slack + 1
    steps = size * size * sum(math.comb(size, k) for k in range(n))
    if steps > cap:
        raise oracle.OracleCapacityError(f"{steps} counting steps exceed the cap {cap}")
    ways = {0: 1}  # bitmask of used sums -> weighted placements in the rows so far
    for a in range(size):
        grown = dict(ways)  # no rook in this row
        for used, weight in ways.items():
            if used.bit_count() == n:
                continue
            for s in range(a, size):
                if not used >> s & 1:
                    key = used | 1 << s
                    grown[key] = grown.get(key, 0) + weight * math.comb(s - a + n, n)
        ways = grown
    return math.factorial(n) * sum(w for used, w in ways.items() if used.bit_count() == n)


def critical_crossings(lb: LowerBoundInstance, schedule: Schedule) -> dict[int, int]:
    """Per-slot crossing counts over the critical edges (they sum to n^2)."""
    counts: dict[int, int] = {}
    for i, path in enumerate(lb.instance.paths):
        for edge_id, slot in zip(path, schedule.crossing_slots(i)):
            if edge_id.startswith("crit_"):
                counts[slot] = counts.get(slot, 0) + 1
    return counts


# --- entropy counting -------------------------------------------------------

def phi(eps: float) -> float:
    """Entropy cost of distributing an eps fraction of extra waiting.

    phi(eps) = H(eps/(1+eps)) * (1+eps) with H the binary entropy; phi(0) = 0.
    It is computed in closed form, (eps * ln(1 + 1/eps) + ln(1 + eps)) / ln 2,
    with ln(1 + 1/eps) taken as ln(1 + eps) - ln(eps) below eps = 1, where
    1/eps can overflow. For eps in (0, 0.1] a convenient upper bound is
    1.5 * eps * log2(1/eps).
    """
    if not 0 <= eps < math.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")
    if eps == 0:
        return 0.0
    inverse = math.log1p(1 / eps) if eps > 1 else math.log1p(eps) - math.log(eps)
    return (eps * inverse + math.log1p(eps)) / math.log(2)


@dataclass(frozen=True)
class MarginResult:
    eps: float
    phi_value: float
    collision_exponent: float

    @property
    def holds(self) -> bool:
        return self.phi_value < self.collision_exponent


def margin(eps: float) -> MarginResult:
    """Compare the n^2 exponents: candidate count growth vs collision decay."""
    return MarginResult(eps=eps, phi_value=phi(eps), collision_exponent=COLLISION_EXPONENT)


def counting_bound(n: int, eps: float) -> float:
    """log2 upper bound on candidate matrices: phi(eps)*n^2 + 2n*log2(2n).

    With eps = horizon / path_length - 1, it bounds log2 of `count_candidates`
    on the checked grid n = 3..6, slack 0..10. It does not hold for n <= 2:
    the smallest exceptions known are n = 1 at horizon 7 (10 candidates,
    log2 3.32 against 3.21) and n = 2 at horizon 15 (148,698 candidates,
    log2 17.18 against 16.54).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return phi(eps) * n * n + 2.0 * n * math.log2(2.0 * n)
