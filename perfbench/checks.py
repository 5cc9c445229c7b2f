"""Output checks for the benchmark, computed apart from the event engine.

Each check takes what one simulation left behind (its trace, its report and
what the benchmark observed while it ran) and returns a list of violations;
an empty list means the output is right.  The graph searches here are
written for the benchmark and share no code with the simulator, so a fault
in the simulator's own helpers cannot hide itself.
"""

from __future__ import annotations

from collections import Counter, deque

from gcnsim.packets import (ACK_BYTES, DATA_BASE_HEADER_BYTES,
                            DEST_PAIR_BYTES, DISCOVERY_BYTES,
                            SMF_TTL_HEADER_BYTES)


def hop_distances(positions: dict, radius: float, start, allowed=None) -> dict:
    """Breadth-first hop counts from `start` on the unit-disk graph.

    Two nodes are adjacent when their squared distance is at most radius
    squared.  With `allowed` given, the search only passes through those
    nodes (plus `start`).
    """
    r2 = radius * radius
    nodes = list(positions) if allowed is None else [
        n for n in positions if n in allowed or n == start]
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        pu = positions[u]
        for v in nodes:
            if v in dist:
                continue
            pv = positions[v]
            dx = pu.x - pv.x
            dy = pu.y - pv.y
            if dx * dx + dy * dy <= r2:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def connected_fraction(positions: dict, radius: float, active: set, source,
                       members: set) -> float:
    """Share of the other members reachable from `source` through `active`."""
    others = members - {source}
    if not others:
        return 1.0
    reach = hop_distances(positions, radius, source, allowed=active)
    return sum(1 for m in others if m in reach) / len(others)


def data_sent_at_most_once(trace: list) -> list:
    """Each node transmits each data message at most once."""
    sends = Counter((node, msg_id) for _t, node, event, msg_id, _i, _b in trace
                    if event == "tx:data")
    repeats = sorted(key for key, n in sends.items() if n > 1)
    return [f"node {node} sent data {msg_id} {sends[(node, msg_id)]} times"
            for node, msg_id in repeats[:3]]


def bytes_match_trace(trace: list, report, payload_bytes: int) -> list:
    """Report byte totals equal the traced transmissions priced by wire size.

    Valid for scenarios whose data all carries `payload_bytes` (no distance
    refresh traffic).  A flood copy carries an integer TTL in its trace info,
    a relay-protocol copy the list of its per-destination MRD fields.
    """
    control = data = 0
    for _t, _node, event, _msg, info, _nbytes in trace:
        if event == "tx:discovery":
            control += DISCOVERY_BYTES
        elif event == "tx:ack":
            control += ACK_BYTES
        elif event == "tx:data":
            if isinstance(info, int):
                data += payload_bytes + SMF_TTL_HEADER_BYTES
            else:
                data += (payload_bytes + DATA_BASE_HEADER_BYTES
                         + DEST_PAIR_BYTES * len(info))
    out = []
    if control != report.bytes_control:
        out.append(f"control bytes {report.bytes_control} != traced {control}")
    if data != report.bytes_data:
        out.append(f"data bytes {report.bytes_data} != traced {data}")
    return out


def _originated(trace: list, origin) -> list:
    """Message ids of the data messages `origin` itself sent first."""
    return [msg for _t, node, event, msg, _i, _b in trace
            if event == "tx:data" and node == origin and msg[0] == origin]


def _delivered(trace: list) -> dict:
    out: dict = {}
    for _t, node, event, msg, _i, _b in trace:
        if event == "deliver":
            out.setdefault(msg, set()).add(node)
    return out


def delivers_to_all(trace: list, source, want: set) -> list:
    """Every message the source sent reached every member of `want`."""
    sent = _originated(trace, source)
    if not sent:
        return [f"source {source} sent no data"]
    got = _delivered(trace)
    out = []
    for msg in sent:
        missing = want - {source} - got.get(msg, set())
        if missing:
            out.append(f"message {msg} missed {len(missing)} of "
                       f"{len(want - {source})} members, e.g. {min(missing)}")
    return out


def delivers_only_within(trace: list, allowed: set) -> list:
    """No delivery lands outside `allowed`."""
    out = []
    for msg, nodes in sorted(_delivered(trace).items()):
        extra = nodes - allowed
        if extra:
            out.append(f"message {msg} delivered at unreachable {sorted(extra)[:3]}")
    return out


def only_destination_delivers(trace: list, delivers: list, dest) -> list:
    """Targeted messages are delivered by their destination and nobody else.

    `delivers` lists the (node, msg_id) of every Deliver action a protocol
    handler returned; the trace names the targeted messages, whose
    first transmission carries a non-empty MRD list.
    """
    targeted = {msg for _t, node, event, msg, info, _b in trace
                if event == "tx:data" and node == msg[0] and info}
    bad = sorted({(node, msg) for node, msg in delivers
                  if msg in targeted and node != dest})
    return [f"node {node} delivered targeted message {msg} meant for {dest}"
            for node, msg in bad[:3]]


def flood_ttl(dists, members: set, ttl: int) -> list:
    """The flood TTL is the largest sender-to-reachable-member hop count.

    `dists` holds one hop-distance map per sender (see `hop_distances`).
    """
    want = max((d[m] for d in dists for m in members if m in d), default=0)
    return [] if ttl == want else [f"flood TTL {ttl}, farthest member {want} hops"]
