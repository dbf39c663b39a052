"""Command-line pipeline: validate / enrich / render / query / simulate / eval / demo.

Stages communicate through files (map -> enriched map -> records -> report) so
each step is independently runnable and cacheable. Exit codes: 0 success,
1 validation or plan failure, 2 I/O or configuration error. ``--json`` makes
every subcommand emit one machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures
from .enrichment import EnrichmentError, ingest
from .evalkit import (
    EvalError,
    apl as apl_metric,
    compute_report,
    record_key,
    report_to_csv,
    run_experiment,
)
from .episode import EpisodeError, read_records, write_records
from .fields import ConfigError, parse, read_text
from .geometry import GeometryError
from .gridworld import DEFAULT_RESOLUTION_M, render_grid
from .llm import BACKEND_KINDS, BackendError, make_backend
from .osmag import (
    OsmagError,
    map_size_bytes,
    parse_osmag,
    serialize_osmag,
    validate,
)
from .retrieval import MAP_MODES, PlanError, Query, retrieve

EXIT_OK = 0
EXIT_FAILURE = 1  # validation / plan failure
EXIT_CONFIG = 2  # I/O or config error


def _write_text(path: str, text: str) -> None:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(payload: dict, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args: argparse.Namespace) -> int:
    mapping = parse_osmag(read_text(args.map))
    violations = validate(mapping)
    payload = {
        "violations": [
            {"element_id": v.element_id, "rule": v.rule, "message": v.message}
            for v in violations
        ]
    }
    _emit(
        payload,
        args.json,
        [f"{len(violations)} violations"] + [str(v) for v in violations],
    )
    return EXIT_OK if not violations else EXIT_FAILURE


def _cmd_enrich(args: argparse.Namespace) -> int:
    mapping = parse_osmag(read_text(args.map))
    records = parse(read_text(args.records), args.records, EnrichmentError)
    enriched, report = ingest(mapping, records)
    _write_text(args.output, serialize_osmag(enriched))
    payload = {
        "applied": report.applied,
        "skipped": report.skipped,
        "merged_instances": report.merged_instances,
        "reasons": report.reasons,
        "output": args.output,
    }
    _emit(
        payload,
        args.json,
        [
            f"applied {report.total_applied} records "
            f"({report.total_skipped} skipped, {report.merged_instances} merged)",
            f"wrote {args.output}",
        ],
    )
    return EXIT_OK


def _cmd_render(args: argparse.Namespace) -> int:
    if not args.res > 0:  # also rejects nan
        print(f"error: --res must be positive, got {args.res}", file=sys.stderr)
        return EXIT_CONFIG
    mapping = parse_osmag(read_text(args.map))
    grid = render_grid(mapping, args.res)
    _write_text(args.output, grid.to_pgm())
    sidecar_path = os.path.splitext(args.output)[0] + ".json"
    _write_text(sidecar_path, json.dumps(grid.sidecar(), sort_keys=True, indent=2) + "\n")
    payload = {"pgm": args.output, "sidecar": sidecar_path, **grid.sidecar()}
    _emit(
        payload,
        args.json,
        [f"wrote {args.output} ({grid.width}x{grid.height} @ {args.res} m) and {sidecar_path}"],
    )
    return EXIT_OK


def _cmd_query(args: argparse.Namespace) -> int:
    mapping = parse_osmag(read_text(args.map))
    flags = {"kind": args.backend, "fixtures_file": args.fixtures, "endpoint": args.endpoint, "model": args.model}
    backend = make_backend({key: value for key, value in flags.items() if value})
    plan = retrieve(mapping, Query.from_text(args.text), backend, args.mode)
    print(json.dumps(plan.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = parse(read_text(args.config), args.config, EvalError)
    if args.seed is not None and isinstance(config, dict):  # run_experiment refuses the rest
        config["master_seed"] = args.seed
    records, report = run_experiment(
        config, base_dir=os.path.dirname(os.path.abspath(args.config)), jobs=args.jobs
    )
    write_records(records, args.output)
    payload = {"records": args.output, "episodes": len(records)}
    _emit(payload, args.json, [f"wrote {len(records)} episode records to {args.output}"])
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    records = read_records(args.records)
    size = None
    if args.map:
        size = map_size_bytes(parse_osmag(read_text(args.map)))
    report = compute_report(records, map_size=size)
    payload = report.to_dict()
    if args.apl_intersect:
        solved = {record_key(rec) for rec in read_records(args.apl_intersect) if rec.success}
        mean, count = apl_metric(records, solved)
        payload["apl_intersected_m"] = mean
        payload["apl_intersected_count"] = count
    if args.output:
        _write_text(args.output, json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if args.csv:
        _write_text(args.csv, report_to_csv(report))
    lines = [f"episodes: {report.episodes}", f"r_rsr: {report.r_rsr:.4f}"]
    if report.amd_m is not None:
        lines.append(f"amd_m: {report.amd_m:.4f}")
    if report.apl_m is not None:
        lines.append(f"apl_m: {report.apl_m:.4f}")
    lines.append(f"dir[all_queries]: {report.dir['all_queries']:.4f}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_demo(args: argparse.Namespace) -> int:
    out_dir = args.output
    os.makedirs(out_dir, exist_ok=True)

    bare = fixtures.five_room_map()
    _write_text(os.path.join(out_dir, "fixture.osm"), serialize_osmag(bare))
    records_payload = fixtures.five_room_records()
    _write_text(
        os.path.join(out_dir, "records.json"),
        json.dumps(records_payload, sort_keys=True, indent=2) + "\n",
    )
    enriched, _ = ingest(bare, records_payload)
    _write_text(os.path.join(out_dir, "fixture_enriched.osm"), serialize_osmag(enriched))
    world = fixtures.five_room_world()
    _write_text(
        os.path.join(out_dir, "world.json"),
        json.dumps(world.to_dict(), sort_keys=True, indent=2) + "\n",
    )

    config = fixtures.demo_experiment_config()
    config["map"] = "fixture_enriched.osm"
    config["world"] = "world.json"
    config["master_seed"] = args.seed
    if args.granularities:
        wanted = [g.strip() for g in args.granularities.split(",") if g.strip()]
        config["generate"] = [
            {"category": category, "granularity": gran}
            for category in ("SO", "RO", "UO")
            for gran in wanted
        ]
    _write_text(
        os.path.join(out_dir, "experiment.json"),
        json.dumps(config, sort_keys=True, indent=2) + "\n",
    )

    episode_records, report = run_experiment(config, base_dir=out_dir, jobs=args.jobs)
    write_records(episode_records, os.path.join(out_dir, "records.jsonl"))
    _write_text(os.path.join(out_dir, "report.json"), report.to_json())
    _write_text(os.path.join(out_dir, "report.csv"), report_to_csv(report))

    payload = report.to_dict()
    payload["output_dir"] = out_dir
    lines = [f"demo wrote {out_dir}/records.jsonl and {out_dir}/report.json"]
    for category, block in report.by_category.items():
        apl_text = "-" if block["apl_m"] is None else "{:.2f}m".format(block["apl_m"])
        lines.append(
            f"  {category}: APL={apl_text} r_rsr={block['r_rsr']:.2f} "
            f"dir(failed_only)={block['dir']['failed_only']:.2f}"
        )
    _emit(payload, args.json, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osmag-nav",
        description="Semantic-osmAG maps, LLM-planned object retrieval, and a "
        "deterministic object-goal-navigation simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a map against every structural invariant")
    p.add_argument("map")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("enrich", help="apply a perception-records file to a map")
    p.add_argument("map")
    p.add_argument("records")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_enrich)

    p = sub.add_parser("render", help="rasterize a map to an occupancy grid (PGM + sidecar)")
    p.add_argument("map")
    p.add_argument("--res", type=float, default=DEFAULT_RESOLUTION_M)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("query", help="run retrieval for one query; prints the plan as JSON")
    p.add_argument("map")
    p.add_argument("text")
    p.add_argument("--backend", choices=BACKEND_KINDS, default="heuristic")
    p.add_argument("--fixtures", help="scripted backend fixture file")
    p.add_argument("--endpoint", help="live backend base URL")
    p.add_argument("--model", help="live backend model name")
    p.add_argument("--mode", choices=MAP_MODES, default="full")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("simulate", help="run an experiment config; writes episode records")
    p.add_argument("config")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", help="aggregate metrics over an episode-records file")
    p.add_argument("records")
    p.add_argument("-o", "--output", help="write the report JSON here")
    p.add_argument("--csv", help="also write a results-table CSV here")
    p.add_argument("--map", help="map file to measure for the map-size metric")
    p.add_argument(
        "--apl-intersect",
        help="a baseline's episode-records file; restricts APL to episodes both systems solved",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("demo", help="run the packaged 5-room fixture end to end")
    p.add_argument("-o", "--output", default="demo_out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--granularities", help="comma list among o,or,orf (default: o)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        FileNotFoundError, IsADirectoryError, PermissionError,  # not OSError: requests errors subclass it
        json.JSONDecodeError, ConfigError, EvalError, EpisodeError, BackendError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OsmagError, PlanError, GeometryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
