"""The names `perfbench/` wraps from outside stay where it looks for them.

`perfbench/layers.py` swaps module attributes and methods for timing
wrappers, and `perfbench/run.py` replaces `engine.connectivity_sample` with
a recorder taking exactly five positional arguments, and counts receptions
by replacing `Run._receive` on the instance.  This test loads the layer
timers by path, runs one mobile GCN run, one static GCN run with one-to-all
and targeted data and one static SMF flood under them, checks that the
layers those runs pass through were timed, that each timed GCN handler ran
once per `Run._receive` call of its packet kind and the flooding `on_data`
once per such call of a copy the node does not yet hold (the engine drops a
held copy before the handler), and that uninstalling puts every original
back; it changes no file under `perfbench/`.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import gcnsim.engine as engine_mod
from conftest import one_to_all_flow, small_scenario
from gcnsim.model import MobilitySpec, TimingParams, TrafficFlow, TrafficSpec

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counted_run(scenario, received: Counter):
    """Run `scenario` on seed 0, counting `Run._receive` calls per handler
    that reach it: a flood copy the node already holds reaches none."""
    run = engine_mod.Run(scenario, 0)
    receive = run._receive
    layer = "protocol" if scenario.protocol == "gcn" else "smf"

    def counting_receive(node_id, pkt, sender):
        if layer == "protocol" or pkt.msg_id not in run.nodes[node_id].dup_cache:
            received[f"{layer}.on_{pkt.kind}"] += 1
        else:
            received["smf.held"] += 1
        receive(node_id, pkt, sender)

    run._receive = counting_receive
    run.run()


def test_layer_timers_wrap_live_names():
    perf_layers = _load_layers()
    wrapped_names = [(owner, attr) for _, owners, attr, _ in perf_layers._TARGETS
                     for owner in owners]
    originals = [getattr(owner, attr) for owner, attr in wrapped_names]
    layers = perf_layers.Layers()
    layers.install()
    timed_sample = engine_mod.connectivity_sample
    samples = []
    received = Counter()

    def recording_sample(positions, tx_radius, active, source, members, /):
        samples.append(source)
        return timed_sample(positions, tx_radius, active, source, members)

    engine_mod.connectivity_sample = recording_sample
    try:
        rwp = MobilitySpec(kind="random_waypoint", speed_min=1.0, speed_max=5.0,
                           pause_min=0.0, pause_max=0.5)
        counted_run(small_scenario(mobility=rwp), received)
        targeted = TrafficFlow(pattern="targeted", senders="all_members",
                               dests="source", rate=2.0, payload_bytes=100,
                               start=1.0, stop=2.5)
        data = small_scenario(traffic=TrafficSpec(flows=[one_to_all_flow(), targeted]),
                              timing=TimingParams(distance_refresh_period=0.5))
        counted_run(data, received)
        flood = small_scenario(protocol="smf",
                               traffic=TrafficSpec(flows=[one_to_all_flow()]))
        counted_run(flood, received)
    finally:
        engine_mod.connectivity_sample = timed_sample
        layers.uninstall()
    assert [getattr(owner, attr) for owner, attr in wrapped_names] == originals
    assert len(samples) == 6  # one a second in each 3 s GCN run
    handlers = ("protocol.on_data", "protocol.on_discovery", "protocol.on_ack",
                "smf.on_data")
    assert {name: layers.calls[name] for name in handlers} == {
        name: received[name] for name in handlers}
    assert received["smf.held"] > 0  # the flood heard copies it held
    for name in ("protocol.on_data", "protocol.on_discovery", "protocol.on_ack",
                 "smf.on_data",
                 "smf.min_ttl_oracle", "smf.unit_disk_adjacency", "smf.bfs_hops",
                 "channel.per_at", "mobility.advance",
                 "analytics.connectivity_sample", "analytics.build_world"):
        assert layers.calls[name] > 0, name
