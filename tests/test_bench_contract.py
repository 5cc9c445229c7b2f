"""The names `perfbench/` wraps from outside stay where it looks for them.

`perfbench/layers.py` swaps module attributes and methods for timing
wrappers, and `perfbench/run.py` replaces `engine.connectivity_sample` with
a recorder taking exactly five positional arguments.  This test loads the
layer timers by path, runs one mobile GCN run and one static SMF flood under
them, checks that the layers those runs pass through were timed, and that
uninstalling puts every original back; it changes no file under `perfbench/`.
"""

import importlib.util
from pathlib import Path

import gcnsim.engine as engine_mod
from conftest import one_to_all_flow, small_scenario
from gcnsim.model import MobilitySpec, TrafficSpec

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_timers_wrap_live_names():
    perf_layers = _load_layers()
    wrapped_names = [(owner, attr) for _, owners, attr, _ in perf_layers._TARGETS
                     for owner in owners]
    originals = [getattr(owner, attr) for owner, attr in wrapped_names]
    layers = perf_layers.Layers()
    layers.install()
    timed_sample = engine_mod.connectivity_sample
    samples = []

    def recording_sample(positions, tx_radius, active, source, members, /):
        samples.append(source)
        return timed_sample(positions, tx_radius, active, source, members)

    engine_mod.connectivity_sample = recording_sample
    try:
        rwp = MobilitySpec(kind="random_waypoint", speed_min=1.0, speed_max=5.0,
                           pause_min=0.0, pause_max=0.5)
        engine_mod.Run(small_scenario(mobility=rwp), 0).run()
        flood = small_scenario(protocol="smf",
                               traffic=TrafficSpec(flows=[one_to_all_flow()]))
        engine_mod.Run(flood, 0).run()
    finally:
        engine_mod.connectivity_sample = timed_sample
        layers.uninstall()
    assert [getattr(owner, attr) for owner, attr in wrapped_names] == originals
    assert len(samples) == 3
    for name in ("protocol.on_discovery", "protocol.on_ack", "smf.on_data",
                 "smf.min_ttl_oracle", "smf.unit_disk_adjacency", "smf.bfs_hops",
                 "channel.per_at", "mobility.advance",
                 "analytics.connectivity_sample", "analytics.build_world"):
        assert layers.calls[name] > 0, name
