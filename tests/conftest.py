import pathlib

import pytest

from cd_router.instance import decode

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


@pytest.fixture
def fig1():
    return decode(fixture_text("fig1.json"))


@pytest.fixture
def shared_path_fixture():
    return decode(fixture_text("shared-path.json"))


def randomize_remaining(assignment, rng) -> None:
    """Fix every open level of a DelayAssignment with uniform random draws."""
    tree = assignment.tree
    while not assignment.fully_fixed:
        level = assignment.frontier
        budget = tree.ladder.levels[level].wait_budget
        assignment.set_level(
            level,
            [
                [rng.randint(1, budget) for _ in range(tree.n_blocks(level))]
                for _ in range(assignment.n_packets)
            ],
        )
