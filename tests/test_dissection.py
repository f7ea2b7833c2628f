import pytest

from cd_router.dissection import (
    LadderError,
    build_ladder,
    dissect_plain,
    dissect_shifted,
)

POWERS = [2**e for e in range(2, 13)]


def levels_of(ladder):
    return [(lv.block_len, lv.wait_budget) for lv in ladder.levels]


def test_frozen_ladders():
    assert levels_of(build_ladder(256, 4)) == [(256, 256), (16, 2)]
    assert levels_of(build_ladder(16, 4)) == [(16, 16)]
    assert levels_of(build_ladder(65536, 4)) == [(65536, 65536), (256, 4), (16, 2)]
    assert levels_of(build_ladder(16, 2)) == [(16, 16), (4, 2)]
    assert levels_of(build_ladder(256, 2)) == [(256, 256), (16, 2), (4, 2)]
    assert build_ladder(65536, 4).depth == 2
    assert build_ladder(16, 4).depth == 0


def test_ladder_invariants_sweep():
    for length in POWERS:
        for delta in (2, 4, 8):
            if length < delta:
                continue
            ladder = build_ladder(length, delta)
            lens = [lv.block_len for lv in ladder.levels]
            for a, b in zip(lens, lens[1:]):
                assert a % b == 0 and a > b
            for lv in ladder.levels:
                assert lv.block_len & (lv.block_len - 1) == 0
                assert 1 <= lv.wait_budget <= lv.block_len
            # all but the last level stay above delta^2; the last lands in
            # [delta, delta^2] unless the whole path is already shorter
            for blen in lens[:-1]:
                assert blen > delta * delta
            assert lens[-1] <= delta * delta
            if length >= delta * delta:
                assert lens[-1] >= delta
            assert ladder.levels[0].wait_budget == length


def test_ladder_rejections():
    with pytest.raises(LadderError):
        build_ladder(12, 2)  # not a power of two
    with pytest.raises(LadderError):
        build_ladder(2, 4)  # path too short
    with pytest.raises(LadderError):
        build_ladder(4, 1)  # degenerate delta on a real path
    with pytest.raises(LadderError):
        build_ladder(8, 0)


def test_budget_sums_and_horizon():
    for length in POWERS:
        ladder = build_ladder(length, 4) if length >= 4 else build_ladder(length, 2)
        sub = sum(
            (length // lv.block_len) * lv.wait_budget for lv in ladder.levels[1:]
        )
        assert sub <= 2 * length
        total = ladder.levels[0].wait_budget + sub
        assert ladder.total_wait_budget() == total


def test_plain_partition_frozen_example():
    tree = dissect_plain(build_ladder(16, 2))
    blocks = tree.blocks(1)
    assert [(b.start, b.end) for b in blocks] == [(1, 4), (5, 8), (9, 12), (13, 16)]
    assert tree.n_blocks(0) == 1
    assert tree.blocks(0)[0].start == 1 and tree.blocks(0)[0].end == 16


def test_plain_depth_zero_is_single_root():
    tree = dissect_plain(build_ladder(16, 4))
    assert tree.ladder.depth == 0
    assert tree.n_blocks(0) == 1


def test_plain_laminar_containment_sweep():
    for length in POWERS:
        for delta in (2, 4, 8):
            if length < delta:
                continue
            tree = dissect_plain(build_ladder(length, delta))
            for level in range(1, len(tree.ladder.levels)):
                parent_len = tree.ladder.levels[level - 1].block_len
                covered = []
                for b in tree.blocks(level):
                    assert b.end - b.start + 1 == tree.ladder.levels[level].block_len
                    # nested inside exactly one block of the level above
                    assert (b.start - 1) // parent_len == (b.end - 1) // parent_len
                    covered.extend(range(b.start, b.end + 1))
                assert covered == list(range(1, length + 1))


def test_plain_block_index():
    tree = dissect_plain(build_ladder(16, 2))
    assert [tree.block_index(1, p) for p in (1, 4, 5, 16)] == [0, 0, 1, 3]


def duty_levels(tree):
    """Level whose blocks hold each position 1..length as a duty edge, or None."""
    owner = dict.fromkeys(range(1, tree.length + 1))
    for level in range(1, len(tree.ladder.levels)):
        for block in tree.blocks(level):
            for pos in block.assigned:
                if pos in owner:
                    assert owner[pos] is None, pos
                    owner[pos] = level
    return owner


def test_assigned_level_frozen_example():
    # depth 2, positions 1..8
    tree = dissect_shifted(build_ladder(32, 2))
    assert tree.ladder.depth == 2
    owner = duty_levels(tree)
    expected = {1: 2, 3: 2, 5: 2, 7: 2, 2: 1, 6: 1, 4: None, 8: None}
    for pos, level in expected.items():
        assert owner[pos] == level


def test_assigned_level_counts():
    for length in POWERS:
        for delta in (2, 4):
            if length < delta:
                continue
            tree = dissect_shifted(build_ladder(length, delta))
            depth = tree.ladder.depth
            if depth == 0:
                continue
            counts = {}
            for lvl in duty_levels(tree).values():
                counts[lvl] = counts.get(lvl, 0) + 1
            for level in range(1, depth + 1):
                assert counts[level] == length // (1 << (depth - level + 1))
            assert counts.get(None, 0) == length // (1 << depth)


def test_shifted_blocks_frozen_example():
    # length 16, level-1 blocks of 4 shifted by 2: notional intervals
    tree = dissect_shifted(build_ladder(16, 2))
    spans = [(b.start, b.end) for b in tree.blocks(1)]
    assert spans == [(-1, 2), (3, 6), (7, 10), (11, 14), (15, 18)]


def test_shifted_block_index_matches_containment():
    for length in (8, 16, 64, 256):
        tree = dissect_shifted(build_ladder(length, 2))
        for level in range(1, len(tree.ladder.levels)):
            for pos in range(1, length + 1):
                idx = tree.block_index(level, pos)
                b = tree.blocks(level)[idx]
                assert b.start <= pos <= b.end


def test_shifted_middle_alignment():
    # every boundary node of the coarser level is the midpoint of some block
    for length in (16, 64, 256, 4096):
        tree = dissect_shifted(build_ladder(length, 2))
        for level in range(1, len(tree.ladder.levels)):
            parent = tree.ladder.levels[level - 1].block_len
            own = tree.ladder.levels[level].block_len
            for node in range(0, length + 1, parent):
                b = tree.blocks(level)[node // own]
                assert b.start + own // 2 - 1 == node


def test_shifted_duty_covers_budget():
    for length in POWERS:
        for delta in (2, 4, 8):
            if length < delta:
                continue
            tree = dissect_shifted(build_ladder(length, delta))
            for level in range(1, len(tree.ladder.levels)):
                budget = tree.ladder.levels[level].wait_budget
                for b in tree.blocks(level):
                    assert len(b.assigned) >= budget


def test_shifted_duty_positions_unique_level():
    tree = dissect_shifted(build_ladder(256, 2))
    depth = tree.ladder.depth
    for level in range(1, len(tree.ladder.levels)):
        q = depth - level
        for b in tree.blocks(level):
            for pos in b.assigned:
                assert b.start <= pos <= b.end
                # value has exactly q trailing zero bits: odd * 2^q
                assert pos % (1 << q) == 0 and (pos // (1 << q)) % 2 != 0


def test_shifted_duty_near_boundary():
    # duty edges used for waiting sit within budget * spacing of a block end
    for length in (64, 256, 4096):
        tree = dissect_shifted(build_ladder(length, 2))
        depth = tree.ladder.depth
        for level in range(1, len(tree.ladder.levels)):
            budget = tree.ladder.levels[level].wait_budget
            spacing = 1 << (depth - level + 1)
            for b in tree.blocks(level):
                lead = b.assigned[:budget]
                tail = b.assigned[-budget:]
                assert all(p - b.start < budget * spacing for p in lead)
                assert all(b.end - p < budget * spacing for p in tail)
