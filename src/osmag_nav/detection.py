"""Stochastic stand-in for the two-stage online detection at a response node.

An open-vocabulary detector is modeled as: each visible matching instance
yields a proposal with some probability plus Poisson-distributed spurious
proposals, ranked by confidence. A yes/no verifier then accepts true and
spurious proposals with separate probabilities. The robot rotates through
headings until a proposal is accepted or all views are exhausted. Every
distribution is parameterized so each real-world failure class (missed
proposal, verifier confusion, spurious accept) is reproducible on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gridworld import WorldModel, _ray_hits


# confidence ranges of true and spurious proposals, drawn uniformly
CONF_TP = (0.5, 1.0)
CONF_FP = (0.1, 0.8)


class DetectionConfigError(ValueError):
    pass


@dataclass(frozen=True)
class DetectionProfile:
    p_propose_tp: float = 1.0
    fp_rate: float = 0.0
    p_verify_tp: float = 1.0
    p_verify_fp: float = 0.0
    rotation_step_deg: int = 90

    def __post_init__(self) -> None:
        for name in ("p_propose_tp", "p_verify_tp", "p_verify_fp"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise DetectionConfigError(f"{name}={value} outside [0, 1]")
        if self.fp_rate < 0.0:
            raise DetectionConfigError("fp_rate must be >= 0")
        if self.rotation_step_deg <= 0 or 360 % self.rotation_step_deg != 0:
            raise DetectionConfigError("rotation_step_deg must divide 360")

    @property
    def views_per_node(self) -> int:
        return 360 // self.rotation_step_deg


@dataclass(frozen=True)
class Proposal:
    confidence: float
    instance_ref: int | None  # index into world.instances; None means spurious
    bearing_deg: float


@dataclass
class DetectionOutcome:
    found: bool
    matched_instance: int | None
    views_used: int
    is_true_positive: bool
    trace: list[dict] = field(default_factory=list)


def _wrap_deg(angle: float) -> float:
    return (angle + 180.0) % 360.0 - 180.0


def visible_instances(
    world: WorldModel,
    pose: tuple[float, float, float],
) -> list[int]:
    """Instance indices within range of ``world.sensor``, within its FOV
    half-angle of the heading, and with an unobstructed line of sight."""
    x, y, heading = pose
    cfg = world.sensor
    half = cfg.fov_deg / 2.0
    out = []
    for i, inst in enumerate(world.instances):
        dx, dy = inst.position.x - x, inst.position.y - y
        r = math.hypot(dx, dy)
        if r > cfg.range_m:
            continue
        if r > 1e-9:
            bearing = math.degrees(math.atan2(dy, dx))
            if abs(_wrap_deg(bearing - heading)) > half + 1e-9:
                continue
        # cast the sight line as a ray whose unit length reaches the instance:
        # a wall blocks it only when the first hit comes strictly before t = 1
        if _ray_hits((x, y), np.array([[dx, dy]]), world.segments, math.inf)[0] < 1.0 - 1e-9:
            continue
        out.append(i)
    return out


def propose(
    world: WorldModel,
    pose: tuple[float, float, float],
    query_object: str,
    profile: DetectionProfile,
    rng: np.random.Generator,
) -> list[Proposal]:
    """Confidence-ranked proposal list for one view.

    Each visible instance whose label matches the query (the label rule of
    :meth:`WorldModel.instances_of`) proposes with probability
    ``p_propose_tp``; spurious proposals arrive Poisson(fp_rate).
    """
    x, y, _ = pose
    visible = set(visible_instances(world, pose))
    proposals: list[Proposal] = []
    for idx, inst in world.instances_of(query_object):
        if idx not in visible:
            continue
        if rng.random() < profile.p_propose_tp:
            conf = float(rng.uniform(*CONF_TP))
            bearing = math.degrees(math.atan2(inst.position.y - y, inst.position.x - x))
            proposals.append(Proposal(conf, idx, bearing))
    for _ in range(int(rng.poisson(profile.fp_rate))):
        conf = float(rng.uniform(*CONF_FP))
        bearing = float(rng.uniform(-180.0, 180.0))
        proposals.append(Proposal(conf, None, bearing))
    proposals.sort(key=lambda p: -p.confidence)
    return proposals


def verify(proposal: Proposal, profile: DetectionProfile, rng: np.random.Generator) -> bool:
    """Yes/no verifier: accepts true proposals with p_verify_tp, spurious with p_verify_fp."""
    p = profile.p_verify_tp if proposal.instance_ref is not None else profile.p_verify_fp
    return bool(rng.random() < p)


def detect_at_node(
    world: WorldModel,
    node_pose: tuple[float, float],
    query_object: str,
    profile: DetectionProfile,
    rng: np.random.Generator,
) -> DetectionOutcome:
    """Rotate through headings 0, step, ..., 360-step; stop at the first
    accepted proposal (verified in confidence order)."""
    x, y = node_pose
    trace: list[dict] = []
    views = 0
    for heading in range(0, 360, profile.rotation_step_deg):
        views += 1
        pose = (x, y, float(heading))
        proposals = propose(world, pose, query_object, profile, rng)
        verdicts = []
        accepted: Proposal | None = None
        for prop in proposals:
            ok = verify(prop, profile, rng)
            verdicts.append(
                {
                    "confidence": round(prop.confidence, 6),
                    "instance": prop.instance_ref,
                    "accepted": ok,
                }
            )
            if ok:
                accepted = prop
                break
        trace.append({"heading_deg": heading, "proposals": verdicts})
        if accepted is not None:
            # propose attaches an instance only when its label is the query's
            matched = accepted.instance_ref
            return DetectionOutcome(True, matched, views, matched is not None, trace)
    return DetectionOutcome(False, None, views, False, trace)
