"""Laminar dissection of a path into nested blocks, plain and shifted.

A ladder of block lengths is produced by repeated square-rooting (on the
exponent, so every length stays a power of two) until blocks are at most
delta^2 long. Each level carries a waiting budget: the root level's budget
equals the whole path length, deeper levels get the fourth root of their
block length, rounded up to a power of two.

The plain tree aligns all levels at position 1; the shifted tree offsets each
sublevel by half its block length (so coarser boundaries sit mid-block one
level down) and distributes waiting over designated edges: position j with
odd(j) * 2^q form is handled by level L - q, and positions divisible by 2^L
stay unassigned.

A tree depends on D', its levels and the variant alone: delta only picks
the levels, and a ladder does not keep it. So `dissect_plain` and
`dissect_shifted` build each tree once per process and hand the same object
to every run on that ladder. Its position columns (`columns`) are computed
on first read and kept on the tree. Both are shared read-only: the block
rows and the columns are tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .delay_model import PositionColumns


class LadderError(ValueError):
    pass


@dataclass(frozen=True)
class Level:
    block_len: int
    wait_budget: int


@dataclass(frozen=True)
class LevelLadder:
    length: int  # common (padded) path length, a power of two
    levels: tuple[Level, ...]

    @property
    def depth(self) -> int:
        """Index of the last level (number of sublevels)."""
        return len(self.levels) - 1

    def total_wait_budget(self) -> int:
        """Waiting issued to one packet by a full plain assignment (any values).

        Each level issues (#blocks * budget); level 0 issues `length`, and the
        sublevels together at most 2 * length.
        """
        return sum((self.length // lv.block_len) * lv.wait_budget for lv in self.levels)


def build_ladder(length: int, delta: int) -> LevelLadder:
    """Block-length ladder for a path of `length` edges (power of two).

    Exponent recurrence e -> ceil(e/2), stopping at the first level whose
    block length is at most delta^2. Budgets: root = length, deeper levels
    2^ceil(e/4) (fourth root rounded up to a power of two). Both arguments
    must be `int` (`bool` refused).
    """
    if type(length) is not int or type(delta) is not int:
        raise LadderError(f"length and delta must be integers, got {length!r} and {delta!r}")
    if length < 1 or length & (length - 1):
        raise LadderError(f"path length {length} is not a power of two")
    if delta < 1:
        raise LadderError(f"delta {delta} must be at least 1")
    if length >= 2 and delta < 2:
        raise LadderError("delta must be at least 2 for paths of length >= 2")
    if length < delta:
        raise LadderError(f"path too short for ladder: length {length} < delta {delta}")
    exps = [length.bit_length() - 1]
    while (1 << exps[-1]) > delta * delta:
        exps.append((exps[-1] + 1) // 2)
    levels = [Level(block_len=length, wait_budget=length)]
    for e in exps[1:]:
        levels.append(Level(block_len=1 << e, wait_budget=1 << -(-e // 4)))
    return LevelLadder(length=length, levels=tuple(levels))


@dataclass(frozen=True)
class Block:
    level: int
    index: int
    start: int  # first edge position; may be < 1 in the shifted tree
    end: int    # last edge position; may be > length in the shifted tree
    assigned: tuple[int, ...] = ()  # shifted tree only; notional, may leave [1, length]


class _Dissection:
    """What both trees share: a row of blocks per level, and the position columns."""

    ladder: LevelLadder
    length: int
    _blocks: tuple[tuple[Block, ...], ...]

    def n_blocks(self, level: int) -> int:
        return len(self._blocks[level])

    def blocks(self, level: int) -> tuple[Block, ...]:
        return self._blocks[level]

    @cached_property
    def columns(self) -> PositionColumns:
        """Every position's terms as columns (`delay_model.position_columns`), built on first read."""
        from .delay_model import position_columns  # delay_model imports this module

        return position_columns(self)


class BlockTree(_Dissection):
    """Aligned dissection: every level partitions positions 1..length."""

    kind = "plain"

    def __init__(self, ladder: LevelLadder):
        self.ladder = ladder
        self.length = ladder.length
        self._blocks = tuple(
            tuple(
                Block(level, b, b * lv.block_len + 1, (b + 1) * lv.block_len)
                for b in range(self.length // lv.block_len)
            )
            for level, lv in enumerate(ladder.levels)
        )

    def block_index(self, level: int, pos: int) -> int:
        return (pos - 1) // self.ladder.levels[level].block_len


# Each variant keeps the trees of its 16 latest ladders, enough for every
# padded length up to 2^15 at one delta.
@lru_cache(maxsize=16)
def dissect_plain(ladder: LevelLadder) -> BlockTree:
    tree = BlockTree(ladder)
    # laminar sanity: each level partitions the path and nests in the one above
    for level in range(1, len(ladder.levels)):
        assert ladder.levels[level - 1].block_len % ladder.levels[level].block_len == 0
    return tree


class ShiftedBlockTree(_Dissection):
    """Shifted dissection with per-edge waiting duty.

    Sublevel blocks are offset by half their length, so each block's middle
    node falls on the grid of the level above; the first and last block of a
    level are truncated at the path ends but keep their notional interval
    (waiting duty landing before position 1 is served at the source, duty
    past the path end lapses at the sink).
    """

    kind = "buffered"

    def __init__(self, ladder: LevelLadder):
        self.ladder = ladder
        self.length = ladder.length
        rows = [(Block(0, 0, 1, self.length),)]
        for level in range(1, len(ladder.levels)):
            lv = ladder.levels[level]
            half = lv.block_len // 2
            row = []
            for b in range(self.length // lv.block_len + 1):
                start = b * lv.block_len - half + 1
                end = b * lv.block_len + half
                row.append(Block(level, b, start, end, self._assigned(level, start, end)))
            rows.append(tuple(row))
        self._blocks = tuple(rows)
        self._check_budget_coverage()

    def _assigned(self, level: int, start: int, end: int) -> tuple[int, ...]:
        q = self.ladder.depth - level
        step = 1 << (q + 1)
        offset = 1 << q
        first = start + (offset - start) % step
        return tuple(range(first, end + 1, step))

    def _check_budget_coverage(self) -> None:
        for level in range(1, len(self.ladder.levels)):
            budget = self.ladder.levels[level].wait_budget
            for block in self._blocks[level]:
                if len(block.assigned) < budget:
                    raise LadderError(
                        f"level {level} block {block.index} has "
                        f"{len(block.assigned)} duty edges < budget {budget}"
                    )

    def block_index(self, level: int, pos: int) -> int:
        if level == 0:
            return 0
        d = self.ladder.levels[level].block_len
        return (pos - 1 + d // 2) // d


@lru_cache(maxsize=16)
def dissect_shifted(ladder: LevelLadder) -> ShiftedBlockTree:
    return ShiftedBlockTree(ladder)
