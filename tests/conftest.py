"""Shared fixtures: small-k canonical listings and hand-checked sequences."""

from __future__ import annotations

import pytest

from knightcycles.board import BoardSpec
from knightcycles.search import enumerate_cycles

# The eight equivalent placements of one length-8 cycle on a 5x5 board.
# MINIMAL_K8_W5 is the canonical one; the others re-express the same figure
# rotated/mirrored (each written as its own placement's smallest traversal).
MINIMAL_K8_W5 = (2, 9, 18, 15, 24, 17, 6, 13)
EQUIVALENT_K8_W5 = (
    (4, 7, 18, 11, 22, 19, 10, 13),
    (3, 10, 19, 22, 13, 16, 7, 14),
    (2, 9, 20, 13, 24, 17, 8, 11),
    (4, 7, 16, 13, 22, 19, 8, 15),
    (4, 7, 16, 23, 12, 19, 10, 13),
    (2, 9, 20, 23, 14, 17, 6, 13),
)

# Three non-equivalent length-8 cycles visiting one and the same cell set,
# written on a 6-wide board.
TWIN_K8_W6 = (
    (3, 7, 15, 11, 24, 28, 20, 16),
    (3, 7, 15, 28, 20, 16, 24, 11),
    (3, 7, 20, 28, 15, 11, 24, 16),
)

# A length-6 class whose polygon self-intersects (computed once, frozen).
CROSSING_K6 = (1, 10, 5, 18, 3, 16)

EXPECTED_SMALL = {4: (3, 3), 6: (25, 13), 8: (480, 178), 10: (12000, 3034)}


def pytest_collection_modifyitems(config, items):
    """Deselect the longjob tests (k=16 takes about 22 minutes) unless the
    -m expression names them.  A command-line -m replaces pyproject's
    -m 'not longjob', so without this, -m "not slow" would start them;
    -m longjob opts in."""
    if "longjob" in config.getoption("markexpr"):
        return
    longjobs = [item for item in items if item.get_closest_marker("longjob")]
    if longjobs:
        config.hook.pytest_deselected(items=longjobs)
        items[:] = [item for item in items
                    if not item.get_closest_marker("longjob")]


@pytest.fixture(scope="session")
def keys_by_k():
    """Canonical listings for small k, computed once per test session."""
    cache: dict[int, tuple[tuple[int, ...], ...]] = {}

    def get(k: int) -> tuple[tuple[int, ...], ...]:
        if k not in cache:
            out: list[tuple[int, ...]] = []
            enumerate_cycles(k, "dfs", sink=out.append)
            cache[k] = tuple(out)
        return cache[k]

    return get


@pytest.fixture
def board5() -> BoardSpec:
    return BoardSpec.square(5)


@pytest.fixture
def board6() -> BoardSpec:
    return BoardSpec.square(6)
