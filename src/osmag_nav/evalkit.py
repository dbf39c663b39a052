"""The evaluation suite: six retrieval/navigation metrics over episode records,
query-suite generation at three granularities and three object categories, and
a deterministic batch experiment runner.

Metric semantics (distances are meters, Euclidean, against the nearest
ground-truth instance):
  r_rsr   fraction of episodes whose rank-1 room contains a GT instance
  o_rsr   fraction with some top-n plan node within k meters of GT
  amd     mean over episodes of the closest top-5 node's distance
  apl     mean driven length over successes whose success node is within the
          success radius (single-system variant: no baseline intersection)
  dir     recovery of initially-failed retrievals (all top-5 nodes > 1 m)
          through a true-positive online detection
  map size  canonical serialized byte size
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .detection import DetectionProfile
from .episode import EpisodeConfig, EpisodeRecord, run_episode
from .geometry import MetricPoint
from .fields import Fields, read_text
from .gridworld import DEFAULT_RESOLUTION_M, FREE, INFLATION_M, WorldModel, inflate, normalize_label, render_grid
from .llm import make_backend
from .osmag import AreaTable, SemanticMap, containing_area_metric, map_size_bytes, parse_osmag
from .retrieval import MAP_MODES, Query

SO = "SO"
RO = "RO"
UO = "UO"
CATEGORIES = (SO, RO, UO)
GRANULARITIES = ("o", "or", "orf")

SO_NODE_RADIUS_M = 1.0  # static: instance within this of a mapped node
RO_NODE_RADIUS_M = 2.0  # relocated: instance beyond this from every mapped node

# The paper's fixed evaluation thresholds.
K_THRESHOLDS_M = (1.0, 2.0, 3.0)  # O-RSR distance thresholds, ascending
TOP_N = (1, 5)  # O-RSR over the top-1 and top-5 plan nodes
APL_SUCCESS_RADIUS_M = 1.0  # a success counts for APL when its node is this close to GT
DIR_RADIUS_M = 1.0  # a retrieval initially failed when every top-5 node is farther
DIR_MODES = ("all_queries", "failed_only")  # a report carries both


class EvalError(Exception):
    pass


# ---------------------------------------------------------------------------
# metric primitives


def _top_n_min_distance(rec: EpisodeRecord, n: int) -> float | None:
    dists = [
        node["distance_to_gt"]
        for node in rec.plan_nodes[:n]
        if node.get("distance_to_gt") is not None
    ]
    return min(dists) if dists else None


def r_rsr(records: list[EpisodeRecord]) -> float:
    """Rank-1 room contains at least one GT instance; empty plans count as misses."""
    if not records:
        return 0.0
    return sum(1 for r in records if r.rank1_room_contains_gt) / len(records)


def o_rsr(records: list[EpisodeRecord], n: int, k: float) -> float:
    """Some top-n plan node within k meters of the nearest GT instance."""
    if not records:
        return 0.0
    hits = 0
    for rec in records:
        d = _top_n_min_distance(rec, n)
        if d is not None and d <= k:
            hits += 1
    return hits / len(records)


def amd(records: list[EpisodeRecord]) -> tuple[float | None, int]:
    """Mean closest-top-5 distance; returns (mean, excluded_count).

    Records with an empty plan or no GT instance carry no distance and are
    excluded rather than polluting the mean.
    """
    values = []
    excluded = 0
    for rec in records:
        d = _top_n_min_distance(rec, 5)
        if d is None:
            excluded += 1
        else:
            values.append(d)
    if not values:
        return None, excluded
    return sum(values) / len(values), excluded


def record_key(rec: EpisodeRecord) -> str:
    """Stable per-episode key, usable to intersect with external success lists."""
    return "|".join(
        [rec.query_object, rec.query_room or "", rec.query_floor or "", str(rec.seed)]
    )


def apl(
    records: list[EpisodeRecord],
    baseline_success_keys: set[str] | None = None,
) -> tuple[float | None, int]:
    """Mean driven length over qualifying successes; (None, 0) when none qualify.

    This is the single-system variant. When a baseline's success keys are
    supplied (see :func:`record_key`), the mean is restricted to episodes both
    systems solved, reproducing the intersection semantics of side-by-side
    comparisons.
    """
    qualifying = [
        rec
        for rec in records
        if rec.success
        and rec.success_node_distance_m is not None
        and rec.success_node_distance_m <= APL_SUCCESS_RADIUS_M
    ]
    if baseline_success_keys is not None:
        qualifying = [rec for rec in qualifying if record_key(rec) in baseline_success_keys]
    if not qualifying:
        return None, 0
    lengths = [rec.driven_length_m for rec in qualifying]
    return sum(lengths) / len(lengths), len(lengths)


def initially_failed(rec: EpisodeRecord) -> bool:
    d = _top_n_min_distance(rec, 5)
    return d is None or d > DIR_RADIUS_M


def dir_rate(records: list[EpisodeRecord], mode: str = "all_queries") -> float:
    """Detection improvement: initially-failed retrievals recovered by a
    true-positive detection."""
    failed = [r for r in records if initially_failed(r)]
    recovered = [r for r in failed if r.success]
    if mode == "all_queries":
        return len(recovered) / len(records) if records else 0.0
    if mode == "failed_only":
        return len(recovered) / len(failed) if failed else 0.0
    raise EvalError(f"unknown dir mode '{mode}'")


# ---------------------------------------------------------------------------
# report


@dataclass
class MetricsReport:
    episodes: int
    r_rsr: float
    o_rsr: dict[str, dict[str, float]]
    amd_m: float | None
    amd_excluded: int
    apl_m: float | None
    apl_count: int
    dir: dict[str, float]
    map_size_bytes: int | None = None
    by_category: dict[str, dict] = field(default_factory=dict)
    by_granularity: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def _metric_block(records: list[EpisodeRecord]) -> dict:
    o_matrix = {str(n): {f"{k:g}": o_rsr(records, n, k) for k in K_THRESHOLDS_M} for n in TOP_N}
    amd_value, amd_excluded = amd(records)
    apl_value, apl_count = apl(records)
    return {
        "episodes": len(records),
        "r_rsr": r_rsr(records),
        "o_rsr": o_matrix,
        "amd_m": amd_value,
        "amd_excluded": amd_excluded,
        "apl_m": apl_value,
        "apl_count": apl_count,
        "dir": {mode: dir_rate(records, mode) for mode in DIR_MODES},
    }


def compute_report(records: list[EpisodeRecord], map_size: int | None = None) -> MetricsReport:
    by_category = {
        category: _metric_block([r for r in records if r.category == category])
        for category in sorted({r.category for r in records if r.category})
    }
    by_granularity = {
        gran: _metric_block([r for r in records if r.granularity == gran])
        for gran in sorted({r.granularity for r in records})
    }
    return MetricsReport(
        **_metric_block(records),
        map_size_bytes=map_size,
        by_category=by_category,
        by_granularity=by_granularity,
    )


def report_to_csv(report: MetricsReport) -> str:
    """One row per slice, mirroring the common results-table column layout;
    the DIR column shows the report's ``all_queries`` DIR."""
    o_cells = [(str(n), f"{k:g}") for n in reversed(TOP_N) for k in K_THRESHOLDS_M]
    header = (
        ["slice", "episodes", "R-RSR"]
        + [f"O-RSR_top{n}@{k}m" for n, k in o_cells]
        + ["AMD_m", "DIR", "APL_m"]
    )

    def fmt(value) -> str:
        if value is None:
            return ""
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    def row(label: str, block: dict) -> list[str]:
        return (
            [label, str(block["episodes"]), fmt(block["r_rsr"])]
            + [fmt(block["o_rsr"][n][k]) for n, k in o_cells]
            + [fmt(block["amd_m"]), fmt(block["dir"]["all_queries"]), fmt(block["apl_m"])]
        )

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(row("all", report.to_dict()))
    for category, block in report.by_category.items():
        writer.writerow(row(f"category:{category}", block))
    for gran, block in report.by_granularity.items():
        writer.writerow(row(f"granularity:{gran}", block))
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# query generation


def _mapped_label_positions(m: SemanticMap) -> dict[str, list[MetricPoint]]:
    out: dict[str, list[MetricPoint]] = {}
    for node in sorted(m.nodes.values(), key=lambda n: n.id):
        if node.object_name:
            out.setdefault(normalize_label(node.object_name), []).append(m.node_metric(node.id))
        for item in node.observed_objects:
            out.setdefault(normalize_label(item), []).append(m.node_metric(node.id))
    return out


def _categorize(
    world: WorldModel, mapped_positions: dict[str, list[MetricPoint]], label: str
) -> str | None:
    """SO / RO / UO classification of a world label against the mapped
    positions of :func:`_mapped_label_positions`, or None."""
    instances = [inst for _, inst in world.instances_of(label)]
    if not instances:
        return None
    mapped = mapped_positions.get(normalize_label(label), [])
    if not mapped:
        return UO
    def nearest(inst):
        return min(inst.position.distance_to(p) for p in mapped)
    if any(nearest(inst) <= SO_NODE_RADIUS_M for inst in instances):
        return SO
    if all(nearest(inst) > RO_NODE_RADIUS_M for inst in instances):
        return RO
    return None  # in the 1-2 m gray zone: neither cleanly static nor relocated


def generate_queries(
    world: WorldModel,
    m: SemanticMap,
    granularity: str = "o",
    category: str = SO,
) -> list[Query]:
    """Deterministic query list for one (granularity, category) suite.

    Room/floor fields come from the containing area of the label's first
    ground-truth instance. Raises when the category is unrealizable.
    """
    if granularity not in GRANULARITIES:
        raise EvalError(f"unknown granularity '{granularity}'")
    if category not in CATEGORIES:
        raise EvalError(f"unknown category '{category}'")
    out: list[Query] = []
    mapped_positions = _mapped_label_positions(m)
    labels = sorted({inst.label for inst in world.instances}, key=normalize_label)
    table = AreaTable(m) if granularity in ("or", "orf") else None
    for label in labels:
        if _categorize(world, mapped_positions, label) != category:
            continue
        room = floor = None
        if granularity in ("or", "orf"):
            first = world.instances_of(label)[0][1]
            area_id = containing_area_metric(m, first.position, table)
            if area_id is None:
                continue
            area = m.areas[area_id]
            room = area.name or str(area.id)
            if granularity == "orf":
                floor = area.level or "0"
        out.append(Query(object=label, room=room, floor=floor if granularity == "orf" else None))
    if not out:
        raise EvalError(f"category {category} is unrealizable with this world/map pairing")
    return out


# ---------------------------------------------------------------------------
# experiment runner


def _episode_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)).generate_state(1)[0])


def sample_starts(
    m: SemanticMap,
    world: WorldModel,
    count: int,
    master_seed: int,
    grid_resolution_m: float = DEFAULT_RESOLUTION_M,
) -> list[MetricPoint]:
    """World start first (when present), then seeded draws from free space."""
    starts: list[MetricPoint] = []
    if world.start is not None:
        starts.append(world.start)
    if len(starts) >= count:
        return starts[:count]
    grid = inflate(render_grid(m, grid_resolution_m), INFLATION_M)
    free_cells = np.argwhere(grid.cells == FREE)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(0x5747,))
    )
    order = rng.permutation(len(free_cells))
    for idx in order:
        if len(starts) >= count:
            break
        y, x = free_cells[idx]
        cx, cy = grid.center_of((int(x), int(y)))
        starts.append(MetricPoint(cx, cy))
    if len(starts) < count:
        raise EvalError("not enough free space to sample start poses")
    return starts


_CONFIG_KEYS = ("map", "world", "map_mode", "grid_resolution_m", "backend", "profile", "queries", "generate",
                "starts", "master_seed")


def _read_queries(f: Fields, config: dict) -> tuple[list[tuple[Query, str | None]], list[tuple[str, str]]]:
    """The explicit queries with their categories, and the (category,
    granularity) suites to generate."""
    queries, suites = [], []
    for i, item in enumerate(f.array(config.get("queries", []), "queries")):
        p = f"queries[{i}]"
        f.object(item, p, required=("object",), allowed=("object", "room", "floor", "category"))
        room, floor = (f.typed(str | None, item.get(key), f"{p}.{key}") for key in ("room", "floor"))
        query = f.build(Query, p, object=f.typed(str, item["object"], p + ".object"), room=room, floor=floor)
        queries.append((query, f.choice(item.get("category"), p + ".category", (*CATEGORIES, None))))
    for i, item in enumerate(f.array(config.get("generate", []), "generate")):
        p = f"generate[{i}]"
        f.object(item, p, allowed=("category", "granularity"))
        category = f.choice(item.get("category", SO), p + ".category", CATEGORIES)
        suites.append((category, f.choice(item.get("granularity", "o"), p + ".granularity", GRANULARITIES)))
    if not queries and not suites:
        raise EvalError("experiment config defines no queries")
    return queries, suites


def load_experiment_inputs(config: dict, base_dir: str = ".") -> tuple[SemanticMap, WorldModel]:
    """The map and the world an experiment config names, relative paths
    resolved against ``base_dir``."""
    f = Fields("experiment config", EvalError)
    paths = {key: os.path.join(base_dir, f.typed(str, config.get(key), key)) for key in ("map", "world")}
    for key, path in paths.items():
        if not os.path.isfile(path):
            f.fail(key, f"names no file: {path}")
    return parse_osmag(read_text(paths["map"])), WorldModel.from_file(paths["world"])


def run_experiment(
    config: dict,
    base_dir: str = ".",
    jobs: int = 1,
) -> tuple[list[EpisodeRecord], MetricsReport]:
    """Run every (query x start) episode deterministically and aggregate.

    Every field of ``config`` is checked against the experiment schema before
    the map and world are read; a violation raises :class:`EvalError` (or
    :class:`BackendError` for the backend) naming the field.

    Identical (config, master_seed) produce byte-identical record streams, for
    any ``jobs`` value: parallel workers only change wall-clock order, results
    are collected by episode index.
    """
    f = Fields("experiment config", EvalError)
    f.object(config, "", required=("map", "world"), allowed=_CONFIG_KEYS)
    master_seed = f.integer(config.get("master_seed", 0), "master_seed", minimum=0)
    resolution = f.number(config.get("grid_resolution_m", DEFAULT_RESOLUTION_M), "grid_resolution_m", above=0)
    start_count = f.integer(config.get("starts", 1), "starts", minimum=1)
    profile = f.dataclass(DetectionProfile, config.get("profile", {}), "profile")
    map_mode = f.choice(config.get("map_mode", "full"), "map_mode", MAP_MODES)
    queries, suites = _read_queries(f, config)
    backend = make_backend(config.get("backend", {"kind": "heuristic"}), base_dir)
    m, world = load_experiment_inputs(config, base_dir)

    queries += [(q, category) for category, gran in suites for q in generate_queries(world, m, gran, category)]
    starts = sample_starts(m, world, start_count, master_seed, resolution)

    episode_configs: list[EpisodeConfig] = []
    index = 0
    for query, category in queries:
        for start in starts:
            episode_configs.append(
                EpisodeConfig(
                    map=m,
                    world=world,
                    query=query,
                    backend=backend,
                    profile=profile,
                    seed=_episode_seed(master_seed, index),
                    map_mode=map_mode,
                    grid_resolution_m=resolution,
                    start=start,
                    category=category,
                )
            )
            index += 1

    if jobs <= 1:
        records = [run_episode(cfg) for cfg in episode_configs]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_episode, episode_configs))

    report = compute_report(records, map_size=map_size_bytes(m))
    return records, report
