"""Deterministic discrete-event loop binding nodes, channel, mobility, and
traffic into one simulation run.

All randomness is drawn from named per-(seed, subsystem, node) streams (a
node builds its protocol stream at its first draw), and simultaneous events
are ordered by a heap key, so a run is a pure function of (scenario, seed):
repeating it yields bit-identical traces and metrics.  Each push takes the
next number of a sequence, and that number is its key, except in a periodic
series (rediscovery, distance refresh, each traffic stream, and the
connectivity sample, which only a GCN run takes).  Only a series' first
event is pushed at set-up; each event pushes the next one when it runs,
under the key the first one got.  At one instant, periodic events thus run
in set-up order, before anything pushed during the run.  A transmission
pushes nothing: its receptions run inline, each as soon as the channel draws
its hearer, so they run before anything else due at its instant.  Only the
channel draws from the channel stream, and handlers push events but never
pop one or transmit, so no reception runs inside another, and receptions run
between draws change neither the draws nor their order.

The engine reads deliveries, discovery reach and the epoch from the nodes,
and each GCN node learns only the hop distances the run's targeted flows read.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from array import array
from functools import partial
from itertools import repeat

from . import channel as channel_mod
from .analytics import MetricsReport, build_world, connectivity_sample
# bfs_hops is re-exported: the benchmark's layer timers wrap it here
from .geometry import bfs_hops, unit_disk_adjacency  # noqa: F401
from .mobility import advance, init_motion
from .model import (STREAM_CHANNEL, STREAM_MOBILITY, STREAM_PROTOCOL,
                    ConfigurationError, Scenario, make_rng, placement_radius,
                    validate_scenario)
from .packets import DATA_BASE_HEADER_BYTES, REFRESH_BYTES
from .protocol import (BecomeRelay, Deliver, GcnNode, NoRouteError,
                       ProtocolError, SendAck, Transmit)
from .smf import SmfNode, min_ttl_oracle

TICKS_PER_S = 10  # mobility ticks fall at k / TICKS_PER_S, k = 1, 2, ...
SAMPLE_PERIOD = 1.0

# event kinds, ordered only by (time, key); a reception is no event
_TX, _ACK_DUE, _TRAFFIC, _SAMPLE, _DISCOVER, _REFRESH = range(6)

# a transmission's trace event, one string per packet kind: every record of
# a kind holds the same object instead of a copy built per transmission
_TX_EVENTS = {kind: "tx:" + kind for kind in ("discovery", "ack", "data")}


class Trace:
    """A run's trace records, kept by field: arrays of times, nodes and byte
    counts, and lists of events, msg_ids and infos, all immutable.  A time is
    the engine's unrounded `now`, rounded to 9 decimals where it is read or
    written: iterating yields `(round(time, 9), node, event, msg_id, info,
    bytes)` tuples.  `len()` counts them; `Run._record` is the only writer."""

    __slots__ = ("time", "node", "event", "msg_id", "info", "nbytes")

    def __init__(self):
        self.time, self.node, self.nbytes = array("d"), array("q"), array("q")
        self.event, self.msg_id, self.info = [], [], []

    def __len__(self) -> int:
        return len(self.time)

    def __iter__(self):
        return zip(map(round, self.time, repeat(9)), self.node, self.event,
                   self.msg_id, self.info, self.nbytes)


def trace_lines(trace: Trace):
    """A trace's one written form: a JSON line per record, as `json.dumps`
    writes its dict (README.md), formatted directly.  A time prints as
    `repr(round(time, 9))`, in [1e-4, 1e6) as `'%.9f'` less trailing zeros:
    the same correctly rounded 9-place decimal, of at most 15 significant
    digits.  Ints print as JSON does; only an `info` neither None nor an int
    is dumped (a tuple as a list).  A record's tail is formatted once per byte
    count and identity of its objects (`True == 1`, and a list is unhashable;
    each lives in the trace, so no id is reused within a call)."""
    names = {}  # event name -> its JSON string
    tails = {}  # (id(event), id(msg_id), id(info), bytes) -> the line's tail
    for t, node, event, msg_id, info, nbytes in zip(
            trace.time, trace.node, trace.event, trace.msg_id, trace.info, trace.nbytes):
        key = (id(event), id(msg_id), id(info), nbytes)
        tail = tails.get(key)
        if tail is None:
            name = names.get(event)
            if name is None:
                name = names[event] = json.dumps(event)
            mid = f"[{msg_id[0]}, {msg_id[1]}]" if msg_id else "null"
            if info is None:
                info = "null"
            elif type(info) is not int:
                info = json.dumps(info)
            tail = tails[key] = (f'"event": {name}, "msg_id": {mid}, '
                                 f'"info": {info}, "bytes": {nbytes}}}\n')
        time = ("%.9f" % t).rstrip("0") if 1e-4 <= t < 1e6 else repr(round(t, 9))
        if time[-1] == ".":
            time += "0"
        yield f'{{"time": {time}, "node": {node}, {tail}'


def trace_hash(trace: Trace) -> str:
    """sha256 of the lines `trace_lines` writes: `sha256sum` of the file."""
    return hashlib.sha256("".join(trace_lines(trace)).encode()).hexdigest()


class Run:
    """One simulation of one scenario under one seed.  `run()` returns
    `(trace, report)`; the trace is a `Trace`, empty unless `collect_trace`,
    whose tuple `info`s are a GCN record's MRDs and a `noroute`'s recipients."""

    def __init__(self, scenario: Scenario, seed: int, collect_trace: bool = True):
        violations = validate_scenario(scenario)
        if violations:
            raise ConfigurationError("; ".join(violations))
        self.sc = scenario
        self.seed = seed
        self.collect_trace = collect_trace
        self.trace = Trace()
        self._mrd_infos: dict = {}
        self.now = 0.0
        self._seq = 0
        self._heap: list = []

        nodes, self.source = build_world(scenario, seed)
        self.positions = {nid: pos for nid, pos, _ in nodes}
        self.members = {nid for nid, _, flag in nodes if flag}
        self.member_ids = sorted(self.members)
        self.node_ids = sorted(self.positions)
        self.channel_rng = make_rng(seed, STREAM_CHANNEL)

        # (flow index, sender, recipients) for every sender of every flow,
        # resolved once: the traffic series and the nodes' learning read it
        flows = scenario.traffic.flows
        self._sends = [
            (flow_idx, sender, self._resolve_dests(flow, sender))
            for flow_idx, flow in enumerate(flows)
            for sender in ([self.source] if flow.senders == "source"
                           else self.member_ids)]

        tm = scenario.timing
        if scenario.protocol == "gcn":
            # only a targeted send and the corridors it starts read a
            # distance, and only to a recipient the send names
            addressed = frozenset(
                dest for flow_idx, _, dests in self._sends
                if flows[flow_idx].pattern == "targeted" for dest in dests)
            self.nodes = {
                nid: GcnNode(nid, nid in self.members, scenario.source_ttl,
                             scenario.desired_relays,
                             partial(make_rng, seed, STREAM_PROTOCOL, nid),
                             forward_jitter_max=tm.forward_jitter_max,
                             learns_from=addressed)
                for nid in self.node_ids}
        else:
            self.nodes = {
                nid: SmfNode(nid, nid in self.members,
                             partial(make_rng, seed, STREAM_PROTOCOL, nid),
                             forward_jitter_max=tm.forward_jitter_max)
                for nid in self.node_ids}

        self._mobile = scenario.mobility.kind == "random_waypoint"
        if self._mobile:
            self._tick = 0  # the mobility tick the positions stand at
            self._fleet = [  # one motion record per node, by id
                init_motion(scenario.mobility, nid, self.positions[nid], 0.0,
                            make_rng(seed, STREAM_MOBILITY, nid),
                            placement_radius(scenario))
                for nid in self.node_ids]
        # Geometry state of the current positions: the unit-disk graph, built
        # at set-up in a static run and on first use after a move in a mobile
        # one.  A flat channel's one PER is priced here and samples the
        # graph's rows; only a curve prices pairs, into sender -> [(neighbour
        # id, per)], a row built when the sender first transmits; a flood
        # sender's TTL, when it first sends.  `_sync_positions` drops all
        # three together.  Plain attributes, not cached properties: reading
        # `__dict__` would slow every attribute read for the rest of the run
        spec = scenario.channel
        self._flat_per = None if spec.flat_per is None else channel_mod.per_at(spec, 0.0)
        self._priced_rows: dict = {}
        self._smf_ttl_by_sender: dict = {}
        self._unit_disk = None
        if not self._mobile:
            self._graph()

        self.report = MetricsReport(seed=seed, num_members=len(self.members))
        # msg_id -> flow index of each metered message: a node delivers a
        # message once, and only as a recipient, so every Deliver counts
        self._flow_of: dict = {}
        self._flow_counts = [[0, 0] for _ in scenario.traffic.flows]
        self._first_discovery = None  # msg_id of epoch 0's discovery
        self._done = False

    # -- setup -------------------------------------------------------------

    def _neighbor_row(self, sender: int) -> list:
        """A curve channel's row for one sender, priced from the graph of the
        current positions (a mobile caller has synced them); certain-loss
        pairs are left out."""
        spec, positions = self.sc.channel, self.positions
        pos = positions[sender]
        row = []
        for other in self._graph()[sender]:
            per = channel_mod.per_at(spec, pos.distance_to(positions[other]))
            if per < 1.0:
                row.append((other, per))
        return row

    def _graph(self) -> dict:
        """The unit-disk graph of the positions as they stand: a mobile
        caller syncs them first."""
        if self._unit_disk is None:
            self._unit_disk = unit_disk_adjacency(self.positions, self.sc.tx_radius)
        return self._unit_disk

    def _push(self, time: float, kind: int, a=None, b=None, key=None) -> None:
        self._seq += 1
        heapq.heappush(self._heap,
                       (time, self._seq if key is None else key, kind, a, b))

    def _schedule_all(self) -> None:
        """Push the first event of every periodic series."""
        sc = self.sc
        if sc.protocol == "gcn":
            self._push(0.0, _DISCOVER, 0)
            self._schedule(_REFRESH, 1)
        for flow_idx, sender, dests in self._sends:
            # a targeted sender with no one to address sends nothing; a
            # one-to-all sender still sends in a one-member group
            if dests or sc.traffic.flows[flow_idx].pattern == "one_to_all":
                self._schedule(_TRAFFIC, 0, (flow_idx, sender, dests))
        if sc.protocol == "gcn":  # a flood run samples nothing
            self._schedule(_SAMPLE, 1)

    def _schedule(self, kind: int, k: int, b=None, key=None) -> None:
        """Push event `k` of a periodic series, if it falls in the run.  Every
        time is indexed by `k` (`k * period`, `start + k / rate`): a running
        sum would drift."""
        sc = self.sc
        if kind == _TRAFFIC:
            flow = sc.traffic.flows[b[0]]
            time = flow.start + k / flow.rate
            if time >= flow.stop:
                return
        elif kind == _SAMPLE:
            if k > sc.duration // SAMPLE_PERIOD:
                return
            time = k * SAMPLE_PERIOD
        else:
            period = (sc.timing.rediscovery_period if kind == _DISCOVER
                      else sc.timing.distance_refresh_period)
            if not period or k * period >= sc.duration:
                return
            time = k * period
        self._push(time, kind, k, b, key)

    # -- trace / metrics helpers ------------------------------------------

    def _record(self, node, event, msg_id=None, info=None, nbytes=0) -> None:
        """Keep a record at the unrounded `now`: a `Trace` rounds its times to
        9 decimals where they are read or written."""
        if self.collect_trace:
            t = self.trace
            t.time.append(self.now)
            t.node.append(node)
            t.event.append(event)
            t.msg_id.append(msg_id)
            t.info.append(info)
            t.nbytes.append(nbytes)

    def _resolve_dests(self, flow, sender) -> tuple:
        """Who each message of `flow` from `sender` is for: the one rule,
        applied once per sender at set-up.  A sender never addresses itself."""
        if flow.dests == "source":
            dests = [self.source]
        elif flow.dests == "all":
            dests = self.member_ids
        else:
            dests = flow.dests
        return tuple(d for d in dests if d != sender)

    # -- event execution ---------------------------------------------------

    def _apply_actions(self, node_id: int, actions: list) -> None:
        for act in actions:
            if isinstance(act, Transmit):
                self._push(self.now + act.delay, _TX, node_id, act.packet)
            elif isinstance(act, SendAck):
                self._push(self.now + act.delay, _ACK_DUE, node_id)
            elif isinstance(act, BecomeRelay):
                self._record(node_id, "relay", info=self.nodes[self.source].epoch)
            elif isinstance(act, Deliver):
                flow_idx = self._flow_of.get(act.msg_id)
                if flow_idx is not None:  # else a distance refresh: unmetered
                    self._flow_counts[flow_idx][0] += 1
                    self._record(node_id, "deliver", act.msg_id)

    def _transmit(self, sender: int, pkt) -> None:
        nbytes = pkt.wire_bytes()
        if pkt.kind in ("discovery", "ack"):
            self.report.bytes_control += nbytes
        else:
            self.report.bytes_data += nbytes
        if self.collect_trace:
            info = pkt.ttl
            if info is None:  # the MRDs: equal int tuples share one object
                info = tuple([m for _, m in pkt.destinations])
                info = self._mrd_infos.setdefault(info, info)
            self._record(sender, _TX_EVENTS[pkt.kind], pkt.msg_id, info, nbytes)
        if self._mobile:
            self._sync_positions()
        per = self._flat_per
        if per is not None:
            row = (self._unit_disk or self._graph())[sender]
        elif (row := self._priced_rows.get(sender)) is None:
            row = self._priced_rows[sender] = self._neighbor_row(sender)
        channel_mod.sample(row, per, self.channel_rng, self._receive, pkt, sender)

    def _receive(self, node_id: int, pkt, sender: int) -> None:
        node = self.nodes[node_id]
        kind = pkt.kind
        if kind == "data":
            msg_id = pkt.msg_id
            if pkt.ttl is not None:
                if msg_id in node.dup_cache:
                    return  # a flood copy the node holds, ignored as smf.py states
            elif (msg_id[0] not in node.learns_from
                  and (msg_id in node.dup_cache
                       or not (node.is_relay or node.is_member))
                  and (msg_id in node.delivered
                       or not (node_id in node.learns_from if pkt.destinations
                               else node.is_member))):
                return  # a GCN copy that can no longer act, as protocol.py states
            actions = node.on_data(pkt, sender, self.now)
        elif kind == "ack":
            actions = node.on_ack(pkt, sender, self.now)
        elif kind == "discovery":
            actions = node.on_discovery(pkt, sender, self.now)
        else:
            raise ProtocolError(f"unknown packet kind {kind!r}")
        if actions:
            self._apply_actions(node_id, actions)

    def _smf_ttl_for(self, sender: int) -> int:
        """Flood TTL for this sender: the hop count of the farthest member it
        reaches on the graph as it stands at send time, cached per sender
        until the next move."""
        if self._mobile:
            self._sync_positions()
        ttl = self._smf_ttl_by_sender.get(sender)
        if ttl is None:
            ttl = self._smf_ttl_by_sender[sender] = min_ttl_oracle(
                self._graph(), self.members, sender)
        if ttl > self.report.smf_ttl:
            self.report.smf_ttl = ttl
        return ttl

    def _do_traffic(self, flow_idx: int, sender: int, dests: tuple) -> None:
        """Send one message of a flow to `dests`, as `_resolve_dests` gave
        them; a one-to-all packet names none of them."""
        flow = self.sc.traffic.flows[flow_idx]
        node = self.nodes[sender]
        targeted = flow.pattern == "targeted"
        self._flow_counts[flow_idx][1] += len(dests)
        if self.sc.protocol == "smf":
            actions = node.send_flood(self._smf_ttl_for(sender), flow.payload_bytes,
                                      destinations=dests if targeted else ())
        elif not targeted:
            actions = node.send_one_to_all(flow.payload_bytes)
        else:
            try:
                actions = node.send_targeted(dests, self.sc.mrd_offset,
                                             flow.payload_bytes)
            except NoRouteError:
                self.report.no_route_drops += 1
                self._record(sender, "noroute", None, dests)
                return
        self._flow_of[actions[0].packet.msg_id] = flow_idx
        self._apply_actions(sender, actions)

    def _do_discover(self, epoch: int) -> None:
        if epoch > 0:
            self._close_epoch()
        actions = self.nodes[self.source].initiate_discovery(epoch)
        if epoch == 0:
            self._first_discovery = actions[0].packet.msg_id
        self._record(self.source, "discover", info=epoch)
        self._apply_actions(self.source, actions)

    def _close_epoch(self) -> None:
        # the source's epoch is the run's: no discovery carries a newer one
        self.report.relays_per_epoch[self.nodes[self.source].epoch] = sum(
            n.is_relay for n in self.nodes.values())

    def _do_refresh(self) -> None:
        actions = self.nodes[self.source].send_one_to_all(
            REFRESH_BYTES - DATA_BASE_HEADER_BYTES)
        self._apply_actions(self.source, actions)

    def _sync_positions(self) -> None:
        """Move every node to the last mobility tick at or before `now`, with
        one `advance` call that steps the whole fleet over all the ticks
        since the last sync."""
        due = int(self.now * TICKS_PER_S) + 1
        while due / TICKS_PER_S > self.now:
            due -= 1
        if due == self._tick:
            return
        advance(self.sc.mobility, self._fleet, self._tick / TICKS_PER_S,
                (due - self._tick) / TICKS_PER_S, placement_radius(self.sc),
                self.positions)
        self._tick = due
        # everything derived from the old positions is stale
        self._priced_rows.clear()
        self._smf_ttl_by_sender.clear()
        self._unit_disk = None

    def _do_sample(self) -> None:
        if self._mobile:
            self._sync_positions()
        active = {nid for nid, node in self.nodes.items()
                  if node.is_relay} | self.members
        frac = connectivity_sample(self.positions, self.sc.tx_radius,
                                   active, self.source, self.members)
        self.report.connectivity_series.append((self.now, frac))

    # -- main loop ---------------------------------------------------------

    def run(self):
        if self._done:
            raise RuntimeError("a Run object is single-use")
        self._done = True
        self._schedule_all()
        heap = self._heap
        duration = self.sc.duration
        while heap:
            time, key, kind, a, b = heapq.heappop(heap)
            if time > duration:
                break
            if time < self.now - 1e-12:
                raise RuntimeError("event time went backwards")
            self.now = time
            if kind == _TX:
                self._transmit(a, b)
            elif kind == _ACK_DUE:
                self._apply_actions(a, self.nodes[a].make_ack())
            else:  # event a of a periodic series; then queue event a + 1
                if kind == _TRAFFIC:
                    self._do_traffic(*b)
                elif kind == _SAMPLE:
                    self._do_sample()
                elif kind == _DISCOVER:
                    self._do_discover(a)
                else:
                    self._do_refresh()
                self._schedule(kind, a + 1, b, key)
        if self.sc.protocol == "gcn":
            self._close_epoch()
            # a member retransmits the first copy of a discovery it hears
            first, nodes = self._first_discovery, self.nodes
            heard = sum(first in nodes[m].disc_sent for m in self.member_ids)
            self.report.discovered_fraction = heard / len(self.members)
        self.report.delivery_per_flow = [tuple(c) for c in self._flow_counts]
        return self.trace, self.report
