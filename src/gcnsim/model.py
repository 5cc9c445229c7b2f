"""Core domain types: scenario configuration, node placement, seeded randomness.

Everything here is pure data plus pure functions; the simulation engine and
the protocol state machines build on these types.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import NamedTuple, Optional

NodeId = int

# Rng stream domains.  Every consumer of randomness owns exactly one stream,
# derived from (seed, domain, subject), so runs are reproducible and the
# draw order of one subsystem cannot perturb another.
STREAM_PLACEMENT = 0
STREAM_CHANNEL = 1
STREAM_MOBILITY = 2
STREAM_PROTOCOL = 3

# membership redraws before placement gives up; at group_prob >= 1e-2 all
# of them fail with probability below 0.99 ** 10_000 = 2e-44
MAX_MEMBERSHIP_DRAWS = 10_000

PROTOCOLS = ("gcn", "smf")  # GCN and its flooding baseline


def make_rng(seed: int, domain: int, subject: int = 0) -> random.Random:
    """Return an independent PRNG stream for (seed, domain, subject)."""
    key = hashlib.sha256(f"{seed}/{domain}/{subject}".encode()).digest()
    return random.Random(int.from_bytes(key[:16], "big"))


class Position(NamedTuple):
    """An immutable point; a tuple, so building one costs no per-field setattr."""
    x: float
    y: float

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def uniform_disk_point(rng: random.Random, radius: float) -> Position:
    """Draw a point uniformly from the disk of the given radius about the origin."""
    r = radius * math.sqrt(rng.random())
    theta = rng.random() * 2.0 * math.pi
    # a cheaper Position(x, y): skips NamedTuple's __new__
    return tuple.__new__(Position, (r * math.cos(theta), r * math.sin(theta)))


@dataclass
class TimingParams:
    """Protocol timing knobs; durations the wire protocol leaves open."""
    forward_jitter_max: float = 0.001
    rediscovery_period: Optional[float] = None
    distance_refresh_period: Optional[float] = None


@dataclass
class ChannelSpec:
    """Loss inside the scenario's transmit radius; beyond it nothing is heard."""
    # exactly one loss model: a flat_per in [0, 1], or a non-empty curve
    # with flat_per None; validation rejects a spec that sets both or neither
    flat_per: Optional[float] = 0.0
    curve_points: Optional[list[tuple[float, float]]] = None  # (distance_m, per), increasing
    base_loss: float = 0.0


@dataclass
class MobilitySpec:
    kind: str = "static"  # "static" | "random_waypoint"
    speed_min: float = 0.0
    speed_max: float = 0.0
    pause_min: float = 0.0
    pause_max: float = 0.0


@dataclass
class TrafficFlow:
    pattern: str = "one_to_all"       # "one_to_all" | "targeted"
    senders: str = "source"           # "source" | "all_members"
    # one_to_all: "all"; targeted: "all", "source" (senders "all_members")
    # or a non-empty list of distinct ids.  A sender never addresses itself
    dests: str = "all"
    rate: float = 1.0                 # packets per second per sender
    payload_bytes: int = 1400
    start: float = 1.0
    stop: float = 101.0


@dataclass
class TrafficSpec:
    flows: list[TrafficFlow] = field(default_factory=list)


@dataclass
class Scenario:
    region_radius: float = 100.0
    outer_radius: Optional[float] = None  # two-disk layouts: members inner only
    num_users: int = 100
    group_prob: float = 0.25
    tx_radius: float = 40.0
    source_ttl: int = 3
    desired_relays: int = 1
    mrd_offset: int = 0               # -1 low / 0 medium / +1 high resiliency
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    traffic: TrafficSpec = field(default_factory=TrafficSpec)
    duration: float = 10.0
    seeds: list[int] = field(default_factory=lambda: [0])
    protocol: str = "gcn"             # "gcn" | "smf"
    timing: TimingParams = field(default_factory=TimingParams)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# a field's annotation -> the test its value must pass, the violation if not,
# and the annotation of a list's items; a count is an int, not a float or a
# bool; a nested spec must be an instance of its class.  A str has no rule
_TYPE_RULES = {
    "int": (lambda v: type(v) is int, "must be an integer", None),
    "float": (_is_number, "must be a number", None),
    "Optional[float]": (lambda v: v is None or _is_number(v), "must be a number or null", None),
    "list[int]": (lambda v: isinstance(v, (list, tuple)), "must be a list of integers", "int"),
    "list[TrafficFlow]": (lambda v: isinstance(v, list), "must be a list of flows", "TrafficFlow"),
    "TrafficFlow": (lambda v: isinstance(v, TrafficFlow), "must be a flow", None),
    **{spec.__name__: (lambda v, spec=spec: isinstance(v, spec), "must be an object", None)
       for spec in (ChannelSpec, MobilitySpec, TrafficSpec, TimingParams)},
    "Optional[list[tuple[float, float]]]": (
        lambda v: v is None or isinstance(v, (list, tuple)) and all(
            isinstance(pt, (list, tuple)) and len(pt) == 2 and all(map(_is_number, pt))
            for pt in v),
        "must be a list of (distance, per) pairs", "tuple[float, float]"),
    "tuple[float, float]": (lambda v: True, "", "float"),  # its curve's rule judged it
}
_NO_RULE = (lambda v: True, "", None)


def _walk(value, annotation: str, path: str, mistyped: list, non_finite: list) -> None:
    """List under `path` each NaN or infinite float and each value that its
    annotation's rule refuses, in `value` and, field by field and item by
    item, under it; a refused value is not walked into."""
    test, message, items = _TYPE_RULES.get(annotation, _NO_RULE)
    if type(value) is float and not math.isfinite(value):
        non_finite.append(f"{path}: must be finite")
    if not test(value):
        mistyped.append(f"{path}: {message}")
    elif items is not None and value is not None:
        item_test = _TYPE_RULES[items][0]
        for i, item in enumerate(value):
            if type(item) is not int or not item_test(item):  # else finite, holding nothing
                _walk(item, items, f"{path}[{i}]", mistyped, non_finite)
    elif is_dataclass(value):
        for f in fields(value):
            _walk(getattr(value, f.name), f.type, f"{path}.{f.name}" if path else f.name,
                  mistyped, non_finite)


def validate_scenario(sc: Scenario) -> list:
    """Return a list of human-readable invariant violations (empty = valid).

    Every number must be finite: JSON and `--values` both accept NaN and
    infinity, and a flow rate of either would never finish scheduling.  A
    count, a seed or a byte size must be an int, not a float or a bool.  A
    scenario with a value of the wrong type gets only the type violations:
    the range checks compare numbers."""
    out, mistyped = [], []
    _walk(sc, "Scenario", "", mistyped, out)
    if mistyped:
        return out + mistyped
    if sc.num_users < 1:
        out.append("num_users: must be >= 1")
    if not (0.0 < sc.group_prob <= 1.0):
        # with no chance of a member, placement could never draw a group
        out.append("group_prob: must be in (0, 1]")
    if sc.region_radius <= 0:
        out.append("region_radius: must be positive")
    if sc.outer_radius is not None and sc.outer_radius < sc.region_radius:
        out.append("outer_radius: must be >= region_radius")
    if sc.tx_radius <= 0:
        out.append("tx_radius: must be positive")
    if sc.source_ttl < 1:
        out.append("source_ttl: must be >= 1")
    if sc.desired_relays < 1:
        out.append("desired_relays: must be >= 1")
    if sc.mrd_offset not in (-1, 0, 1):
        out.append("mrd_offset: must be -1, 0, or +1")
    if sc.duration <= 0:
        out.append("duration: must be positive")
    if not sc.seeds:
        out.append("seeds: must be non-empty")
    elif len(set(sc.seeds)) != len(sc.seeds):
        out.append("seeds: must be distinct")
    if sc.protocol not in PROTOCOLS:
        out.append("protocol: must be 'gcn' or 'smf'")
    ch = sc.channel
    if ch.flat_per is not None and not (0.0 <= ch.flat_per <= 1.0):
        out.append("channel.flat_per: must be in [0, 1]")
    if ch.flat_per is not None and ch.curve_points is not None:
        out.append("channel.flat_per: must be null when curve_points is set")
    if ch.flat_per is None and not ch.curve_points:
        out.append("channel.curve_points: must be non-empty when flat_per is null")
    if not (0.0 <= ch.base_loss <= 1.0):
        out.append("channel.base_loss: must be in [0, 1]")
    if ch.curve_points is not None:
        dists = [d for d, _ in ch.curve_points]
        pers = [p for _, p in ch.curve_points]
        if dists != sorted(dists) or len(set(dists)) != len(dists):
            out.append("channel.curve_points: distances must be strictly increasing")
        if any(not (0.0 <= p <= 1.0) for p in pers):
            out.append("channel.curve_points: per values must be in [0, 1]")
        if pers != sorted(pers):
            out.append("channel.curve_points: per must be non-decreasing in distance")
    mob = sc.mobility
    if mob.kind not in ("static", "random_waypoint"):
        out.append("mobility.kind: must be 'static' or 'random_waypoint'")
    if not (0.0 <= mob.speed_min <= mob.speed_max):
        out.append("mobility.speed_min/speed_max: need 0 <= min <= max")
    if not (0.0 <= mob.pause_min <= mob.pause_max):
        out.append("mobility.pause_min/pause_max: need 0 <= min <= max")
    tm = sc.timing
    if tm.forward_jitter_max < 0:
        out.append("timing.forward_jitter_max: must be non-negative")
    for name in ("rediscovery_period", "distance_refresh_period"):
        val = getattr(tm, name)
        if val is not None and val <= 0:
            out.append(f"timing.{name}: must be positive when set")
    for i, flow in enumerate(sc.traffic.flows):
        if flow.pattern not in ("one_to_all", "targeted"):
            out.append(f"traffic.flows[{i}].pattern: must be 'one_to_all' or 'targeted'")
        if flow.senders not in ("source", "all_members"):
            out.append(f"traffic.flows[{i}].senders: must be 'source' or 'all_members'")
        if flow.pattern == "one_to_all":
            if flow.dests != "all":
                out.append(f"traffic.flows[{i}].dests: must be 'all' for one_to_all")
        elif isinstance(flow.dests, str):
            if flow.dests not in ("all", "source"):
                out.append(f"traffic.flows[{i}].dests: must be 'all', 'source' "
                           "or a list of node ids")
            elif flow.dests == "source" == flow.senders:
                out.append(f"traffic.flows[{i}].dests: the source never addresses itself")
        elif not (isinstance(flow.dests, (list, tuple)) and flow.dests
                  and all(type(d) is int and 0 <= d < sc.num_users
                          for d in flow.dests)
                  and len(set(flow.dests)) == len(flow.dests)):
            out.append(f"traffic.flows[{i}].dests: need a non-empty list of "
                       "distinct node ids in [0, num_users)")
        if flow.rate <= 0:
            out.append(f"traffic.flows[{i}].rate: must be positive")
        if flow.payload_bytes < 0:
            out.append(f"traffic.flows[{i}].payload_bytes: must be non-negative")
        if flow.start < 0:
            out.append(f"traffic.flows[{i}].start: must be >= 0")
        if not (flow.start < flow.stop <= sc.duration):
            out.append(f"traffic.flows[{i}]: need start < stop <= duration")
    return out


class ConfigurationError(ValueError):
    pass


def placement_radius(sc: Scenario) -> float:
    """The radius nodes are placed and move in: a two-disk layout's outer one."""
    return sc.outer_radius if sc.outer_radius is not None else sc.region_radius


def place_nodes(sc: Scenario, rng: random.Random):
    """Place nodes uniformly on the scenario disk and draw group membership.

    Returns a list of (NodeId, Position, is_group_member).  With a two-disk
    layout (outer_radius set), positions span the outer disk but only nodes
    inside the inner disk can be members.  If the membership draw produces
    zero members, only the flags are redrawn, keeping positions untouched,
    at most MAX_MEMBERSHIP_DRAWS times.
    """
    if sc.num_users < 1:
        raise ConfigurationError("cannot place zero nodes")
    radius = placement_radius(sc)
    positions = [uniform_disk_point(rng, radius) for _ in range(sc.num_users)]
    inner = [math.hypot(x, y) <= sc.region_radius for x, y in positions]
    for _ in range(MAX_MEMBERSHIP_DRAWS):
        flags = [inner[i] and rng.random() < sc.group_prob for i in range(sc.num_users)]
        if any(flags):
            return [(i, positions[i], flags[i]) for i in range(sc.num_users)]
        if sc.group_prob == 0.0 or not any(inner):
            raise ConfigurationError("no node can ever be a group member")
    raise ConfigurationError(f"no group member in {MAX_MEMBERSHIP_DRAWS} membership "
                             f"draws at group_prob={sc.group_prob}")


# --- Scenario (de)serialization ------------------------------------------

def _dataclass_from_dict(cls, data: dict, path: str = ""):
    """Build `cls`, its nested specs, flows and curve points (as tuples) from
    their dict form; every value stays as written, for validation to judge."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path or cls.__name__}: expected an object")
    known = {f.name: f for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigurationError(
            f"{path or cls.__name__}: unknown keys {sorted(unknown)}")
    kwargs = {}
    for name, value in data.items():
        sub = path + "." + name if path else name
        if is_dataclass(known[name].default_factory):  # a nested spec: its class
            kwargs[name] = _dataclass_from_dict(known[name].default_factory, value, sub)
        elif cls is TrafficSpec and name == "flows":
            if not isinstance(value, list):
                raise ConfigurationError(f"{sub}: expected a list")
            kwargs[name] = [_dataclass_from_dict(TrafficFlow, f, f"{sub}[{i}]")
                            for i, f in enumerate(value)]
        elif cls is ChannelSpec and name == "curve_points" and isinstance(value, list):
            kwargs[name] = [tuple(pt) if isinstance(pt, list) else pt for pt in value]
        else:
            kwargs[name] = value
    return cls(**kwargs)


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its plain-dict (JSON) form."""
    return _dataclass_from_dict(Scenario, data)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    return scenario_from_dict(data)


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(sc), fh, indent=2)
        fh.write("\n")
