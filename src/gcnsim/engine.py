"""Deterministic discrete-event loop binding nodes, channel, mobility, and
traffic into one simulation run.

All randomness is drawn from named per-(seed, subsystem, node) streams, and
simultaneous events are ordered by a heap key, so a run is a pure function of
(scenario, seed): repeating it yields bit-identical traces and metrics.  Each
push takes the next number of a sequence, and that number is its key, except
in a periodic series (rediscovery, distance refresh, each traffic stream, the
connectivity sample).  Only a series' first event is pushed at set-up; each
event pushes the next one when it runs, under the key the first one got.  At
one instant, periodic events thus run in set-up order, before anything pushed
during the run.  A transmission's receptions run inline unless another event
is due at the same instant, so the sequence counts heap pushes, not events.
"""

from __future__ import annotations

import hashlib
import heapq

from . import channel as channel_mod
from .analytics import MetricsReport, build_world, connectivity_sample
from .geometry import bfs_hops, unit_disk_adjacency
from .mobility import advance, init_motion
from .model import (STREAM_CHANNEL, STREAM_MOBILITY, STREAM_PROTOCOL,
                    ConfigurationError, Scenario, make_rng, validate_scenario)
from .packets import DATA_BASE_HEADER_BYTES, REFRESH_BYTES
from .protocol import (BecomeRelay, Deliver, GcnNode, NoRouteError,
                       ProtocolError, SendAck, Transmit)
from .smf import SmfNode, min_ttl_oracle

TICKS_PER_S = 10  # mobility ticks fall at k / TICKS_PER_S, k = 1, 2, ...
SAMPLE_PERIOD = 1.0

# event kinds, ordered only by (time, key)
_RX, _TX, _ACK_DUE, _TRAFFIC, _SAMPLE, _DISCOVER, _REFRESH = range(7)


def trace_hash(trace: list) -> str:
    h = hashlib.sha256()
    for rec in trace:
        h.update(repr(rec).encode())
    return h.hexdigest()


class Run:
    """One simulation of one scenario under one seed."""

    def __init__(self, scenario: Scenario, seed: int, collect_trace: bool = True):
        violations = validate_scenario(scenario)
        if violations:
            raise ConfigurationError("; ".join(violations))
        self.sc = scenario
        self.seed = seed
        self.collect_trace = collect_trace
        self.trace: list = []
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
                             make_rng(seed, STREAM_PROTOCOL, nid),
                             forward_jitter_max=tm.forward_jitter_max,
                             learns_from=addressed)
                for nid in self.node_ids}
        else:
            self.nodes = {
                nid: SmfNode(nid, nid in self.members,
                             make_rng(seed, STREAM_PROTOCOL, nid),
                             forward_jitter_max=tm.forward_jitter_max)
                for nid in self.node_ids}

        self._mobile = scenario.mobility.kind == "random_waypoint"
        self._placement_radius = (scenario.outer_radius
                                  if scenario.outer_radius is not None
                                  else scenario.region_radius)
        if self._mobile:
            self._tick = 0  # the mobility tick the positions stand at
            self._fleet = [  # one motion record per node, by id
                init_motion(scenario.mobility, nid, self.positions[nid], 0.0,
                            make_rng(seed, STREAM_MOBILITY, nid),
                            self._placement_radius)
                for nid in self.node_ids]
        # Geometry state of the current positions: the unit-disk graph, built
        # at set-up in a static run and on first use after a move in a mobile
        # one.  A flat channel's one PER is priced here and samples the
        # graph's rows; only a curve prices pairs, into sender -> [(neighbour
        # id, per)], a row built when the sender first transmits.
        # `_sync_positions` drops the graph and the rows together.  Plain
        # attributes, not cached properties: reading `__dict__` would slow
        # every attribute read for the rest of the run
        spec = scenario.channel
        self._flat_per = None if spec.flat_per is None else channel_mod.per_at(spec, 0.0)
        self._priced_rows: dict = {}
        self._unit_disk = None
        if not self._mobile:
            self._graph()

        self.report = MetricsReport(seed=seed, protocol=scenario.protocol,
                                    num_members=len(self.members), source=self.source)
        # msg_id -> (flow index, intended recipients, already-counted recipients)
        self._intended: dict = {}
        self._flow_counts = [[0, 0] for _ in scenario.traffic.flows]
        self._discovered_members: set = set()  # epoch-0 members that heard discovery
        self._epoch = 0
        self._smf_ttl_by_sender: dict = {}
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
        # SMF per-sender TTLs are computed lazily at send time
        for flow_idx, sender, dests in self._sends:
            # a targeted sender with no one to address sends nothing; a
            # one-to-all sender still sends in a one-member group
            if dests or sc.traffic.flows[flow_idx].pattern == "one_to_all":
                self._schedule(_TRAFFIC, 0, (flow_idx, sender, dests))
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
        if self.collect_trace:
            self.trace.append((round(self.now, 9), node, event, msg_id, info, nbytes))

    def _resolve_dests(self, flow, sender) -> list:
        """Who each message of `flow` from `sender` is for: the one rule,
        applied once per sender at set-up.  A sender never addresses itself."""
        if flow.dests == "source":
            dests = [self.source]
        elif flow.dests == "all":
            dests = self.member_ids
        else:
            dests = flow.dests
        return [d for d in dests if d != sender]

    # -- event execution ---------------------------------------------------

    def _apply_actions(self, node_id: int, actions: list) -> None:
        for act in actions:
            if isinstance(act, Transmit):
                self._push(self.now + act.delay, _TX, node_id, act.packet)
            elif isinstance(act, SendAck):
                self._push(self.now + act.delay, _ACK_DUE, node_id)
            elif isinstance(act, BecomeRelay):
                self._record(node_id, "relay", info=self._epoch)
            elif isinstance(act, Deliver):
                self._count_delivery(node_id, act.msg_id)

    def _count_delivery(self, node_id: int, msg_id) -> None:
        entry = self._intended.get(msg_id)
        if entry is None:
            return  # distance-refresh or otherwise unmetered packet
        flow_idx, intended, counted = entry
        if node_id in intended and node_id not in counted:
            counted.add(node_id)
            self._flow_counts[flow_idx][0] += 1
            self._record(node_id, "deliver", msg_id)

    def _transmit(self, sender: int, pkt) -> None:
        nbytes = pkt.wire_bytes()
        if pkt.kind in ("discovery", "ack"):
            self.report.bytes_control += nbytes
        else:
            self.report.bytes_data += nbytes
        if self.collect_trace:
            info = (pkt.ttl if pkt.ttl is not None
                    else [m for _, m in pkt.destinations])
            self._record(sender, "tx:" + pkt.kind, pkt.msg_id, info, nbytes)
        if self._mobile:
            self._sync_positions()
        per = self._flat_per
        if per is not None:
            row = self._graph()[sender]
        elif (row := self._priced_rows.get(sender)) is None:
            row = self._priced_rows[sender] = self._neighbor_row(sender)
        hearers = channel_mod.hearers(row, per, self.channel_rng)
        if not hearers:
            return
        heap = self._heap
        if heap and heap[0][0] <= self.now:
            # another event is due at this instant: queue the receptions
            # behind it, as one entry for all hearers
            self._push(self.now, _RX, (pkt, sender), hearers)
            return
        # an entry pushed now would be popped next, so deliver it at once
        receive = self._receive
        for node_id in hearers:
            receive(node_id, pkt, sender)

    def _receive(self, node_id: int, pkt, sender: int) -> None:
        node = self.nodes[node_id]
        kind = pkt.kind
        if kind == "data":
            actions = node.on_data(pkt, sender, self.now)
        elif kind == "ack":
            actions = node.on_ack(pkt, sender, self.now)
        elif kind == "discovery":
            if pkt.epoch == 0 and node_id in self.members:
                self._discovered_members.add(node_id)
            actions = node.on_discovery(pkt, sender, self.now)
        else:
            raise ProtocolError(f"unknown packet kind {kind!r}")
        if actions:
            self._apply_actions(node_id, actions)

    def _smf_ttl_for(self, sender: int) -> int:
        """Fair flood TTL for this sender: the minimum reaching every member.

        Static runs cache the value; mobile runs track a per-sender running
        maximum refreshed at every sample tick so the flood keeps covering
        the group as it spreads out.
        """
        ttl = self._smf_ttl_by_sender.get(sender)
        if ttl is None:
            if self._mobile:
                self._sync_positions()
            ttl = min_ttl_oracle(self._graph(), self.members, sender)
            self._smf_ttl_by_sender[sender] = ttl
        if ttl > self.report.smf_ttl:
            self.report.smf_ttl = ttl
        return ttl

    def _do_traffic(self, flow_idx: int, sender: int, dests: list) -> None:
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
        self._intended[actions[0].packet.msg_id] = (flow_idx, set(dests), set())
        self._apply_actions(sender, actions)

    def _do_discover(self, epoch: int) -> None:
        if epoch > 0:
            self._close_epoch()
        self._epoch = epoch
        actions = self.nodes[self.source].initiate_discovery(epoch)
        self._record(self.source, "discover", info=epoch)
        self._apply_actions(self.source, actions)

    def _close_epoch(self) -> None:
        self.report.relays_per_epoch[self._epoch] = sum(
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
                (due - self._tick) / TICKS_PER_S, self._placement_radius,
                self.positions)
        self._tick = due
        # everything derived from the old positions is stale
        self._priced_rows.clear()
        self._unit_disk = None

    def _do_sample(self) -> None:
        if self._mobile:
            self._sync_positions()
        if self.sc.protocol == "gcn":
            active = {nid for nid, node in self.nodes.items()
                      if node.is_relay} | self.members
            frac = connectivity_sample(self.positions, self.sc.tx_radius,
                                       active, self.source, self.members)
            self.report.connectivity_series.append((self.now, frac))
        elif self._mobile:
            adj = self._graph()
            for s in self.member_ids:
                dist = bfs_hops(adj, s)
                ecc = max((dist[m] for m in self.members if m in dist), default=0)
                if ecc > self._smf_ttl_by_sender.get(s, 0):
                    self._smf_ttl_by_sender[s] = ecc

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
            if kind == _RX:  # only when another event shared the instant
                pkt, sender = a
                receive = self._receive
                for node_id in b:
                    receive(node_id, pkt, sender)
            elif kind == _TX:
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
            if self.members:
                self._discovered_members.add(self.source)
                self.report.discovered_fraction = (
                    len(self._discovered_members) / len(self.members))
        self.report.delivery_per_flow = [tuple(c) for c in self._flow_counts]
        return self.trace, self.report


def run_scenario(scenario: Scenario, seed: int, collect_trace: bool = True):
    """Convenience wrapper: one run, returning (trace, MetricsReport)."""
    return Run(scenario, seed, collect_trace=collect_trace).run()
