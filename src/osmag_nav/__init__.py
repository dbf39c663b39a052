"""Semantic-osmAG indoor maps, LLM-planned object retrieval, and a
deterministic object-goal-navigation simulator with an evaluation suite.

The root exports each pipeline stage's entry point; every other name is
imported from its own module."""

from .enrichment import ingest
from .evalkit import run_experiment
from .gridworld import navigate, plan_path, render_grid
from .osmag import map_size_bytes, parse_osmag, serialize_osmag, validate
from .retrieval import HeuristicBackend, Query, build_prompt, parse_plan, retrieve, simplify_map

__version__ = "0.1.0"

__all__ = [
    "HeuristicBackend",
    "Query",
    "build_prompt",
    "ingest",
    "map_size_bytes",
    "navigate",
    "parse_osmag",
    "parse_plan",
    "plan_path",
    "render_grid",
    "retrieve",
    "run_experiment",
    "serialize_osmag",
    "simplify_map",
    "validate",
]
