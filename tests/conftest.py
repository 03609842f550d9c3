"""Shared corpus fixtures.

The corpus of all normalized sets within a small diameter, with their
minimal-period search results, and the (7, 11, 13, 2) column-shift instance
back several suites; computing each once per session keeps the overall
runtime down.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from inttiles import cli
from inttiles.cli import _corpus_sets
from inttiles.constructions import Theorem2Params, theorem2_generate
from inttiles.search import SearchConfig, minimal_tiling_period
from inttiles.tilingset import IntegerSet


def enumerate_normalized_sets(max_diameter: int):
    """All sets {0} | S, S within {1..max_diameter}, in the CLI corpus order."""
    return map(IntegerSet, _corpus_sets(max_diameter))


def subprocess_env():
    """The environment for a child Python that imports this inttiles."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


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


@pytest.fixture(scope="session")
def desk_instance():
    """The paper's (7, 11, 13, 2) column-shift instance, M = 1002001."""
    return theorem2_generate(Theorem2Params(7, 11, 13, 2))
