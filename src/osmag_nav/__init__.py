"""Semantic-osmAG indoor maps, LLM-planned object retrieval, and a
deterministic object-goal-navigation simulator with an evaluation suite."""

from .detection import (
    DetectionOutcome,
    DetectionProfile,
    detect_at_node,
    propose,
)
from .enrichment import (
    IngestReport,
    InstanceRecord,
    RoomDescriptionRecord,
    ViewpointRecord,
    ingest,
)
from .episode import EpisodeConfig, EpisodeRecord, read_records, run_episode, write_records
from .evalkit import (
    MetricsReport,
    apl,
    compute_report,
    generate_queries,
    o_rsr,
    r_rsr,
    run_experiment,
)
from .geometry import GeoPoint, MetricPoint, project, unproject
from .gridworld import (
    OccupancyGrid,
    Path,
    SensorConfig,
    WorldModel,
    navigate,
    plan_path,
    render_grid,
    sense,
)
from .llm import CompletionRequest, LiveBackend, ScriptedBackend, TextBackend, make_backend
from .osmag import (
    Area,
    MapNode,
    Passage,
    SemanticMap,
    Violation,
    map_size_bytes,
    parse_osmag,
    serialize_osmag,
    validate,
)
from .retrieval import (
    HeuristicBackend,
    Query,
    RetrievalPlan,
    build_prompt,
    parse_plan,
    retrieve,
    simplify_map,
)

__version__ = "0.1.0"

__all__ = [
    "Area",
    "CompletionRequest",
    "DetectionOutcome",
    "DetectionProfile",
    "EpisodeConfig",
    "EpisodeRecord",
    "GeoPoint",
    "HeuristicBackend",
    "IngestReport",
    "InstanceRecord",
    "LiveBackend",
    "MapNode",
    "MetricPoint",
    "MetricsReport",
    "OccupancyGrid",
    "Passage",
    "Path",
    "Query",
    "RetrievalPlan",
    "RoomDescriptionRecord",
    "ScriptedBackend",
    "SemanticMap",
    "SensorConfig",
    "TextBackend",
    "ViewpointRecord",
    "Violation",
    "WorldModel",
    "apl",
    "build_prompt",
    "compute_report",
    "detect_at_node",
    "generate_queries",
    "ingest",
    "make_backend",
    "map_size_bytes",
    "navigate",
    "o_rsr",
    "parse_osmag",
    "parse_plan",
    "plan_path",
    "project",
    "propose",
    "r_rsr",
    "read_records",
    "render_grid",
    "retrieve",
    "run_episode",
    "run_experiment",
    "sense",
    "serialize_osmag",
    "simplify_map",
    "unproject",
    "validate",
    "write_records",
]
