"""Shared corpus fixtures.

The corpus of all normalized sets within a small diameter, with their
minimal-period search results, backs several suites; computing it once per
session keeps the overall runtime down.
"""

from __future__ import annotations

import pytest

from inttiles.search import SearchConfig, minimal_tiling_period
from inttiles.tilingset import IntegerSet


def enumerate_normalized_sets(max_diameter: int):
    """All sets {0} | S, S within {1..max_diameter}, in bitmask order."""
    for mask in range(1 << max_diameter):
        yield IntegerSet(
            (0,) + tuple(i + 1 for i in range(max_diameter) if mask >> i & 1)
        )


@pytest.fixture(scope="session")
def corpus10():
    """(tile, restricted PeriodResult) for every normalized set in {0..10}."""
    return [
        (tile, minimal_tiling_period(tile, SearchConfig()))
        for tile in enumerate_normalized_sets(10)
    ]


@pytest.fixture(scope="session")
def corpus12():
    """(tile, restricted PeriodResult) for every normalized set in {0..12}."""
    return [
        (tile, minimal_tiling_period(tile, SearchConfig()))
        for tile in enumerate_normalized_sets(12)
    ]
