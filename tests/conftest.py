from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402

from osmag_nav import fixtures as pkg_fixtures  # noqa: E402
from osmag_nav.detection import DetectionProfile  # noqa: E402
from osmag_nav.retrieval import HeuristicBackend  # noqa: E402


@pytest.fixture(scope="session")
def bare_map():
    return pkg_fixtures.five_room_map()


@pytest.fixture(scope="session")
def enriched_map():
    return pkg_fixtures.enriched_five_room_map()


@pytest.fixture(scope="session")
def demo_world():
    return pkg_fixtures.five_room_world()


@pytest.fixture(scope="session")
def heuristic_backend():
    return HeuristicBackend()


@pytest.fixture(scope="session")
def demo_profile():
    return DetectionProfile(
        p_propose_tp=1.0, p_verify_tp=1.0, fp_rate=0.1, p_verify_fp=0.0
    )


@pytest.fixture(scope="session")
def buildings():
    """Seeded ``perfbench/gen`` buildings of 16 and 144 rooms, records in 4 batches."""
    return {rooms: gen.generate(rooms, 1, 1, batches=4) for rooms in (16, 144)}
