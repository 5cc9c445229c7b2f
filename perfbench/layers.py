"""Per-layer timing for the traced run, wrapped around the program's public
functions from outside: no file of the simulator is edited.

`Layers.install()` swaps each timed function for a wrapper in every module
namespace that calls it, and `Layers.uninstall()` puts the originals back.
Each wrapper adds its inclusive time to its own name; time spent in wrappers
entered directly from `Run.run` (depth one) is what `engine.self` excludes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from gcnsim import analytics, channel, cli, engine, smf
from gcnsim.protocol import GcnNode
from gcnsim.smf import SmfNode

# (metric name, owner objects that hold the attribute, attribute, counts useful results)
_TARGETS = [
    ("protocol.on_data", (GcnNode,), "on_data", True),
    ("protocol.on_discovery", (GcnNode,), "on_discovery", True),
    ("protocol.on_ack", (GcnNode,), "on_ack", True),
    ("smf.on_data", (SmfNode,), "on_data", True),
    ("smf.min_ttl_oracle", (engine,), "min_ttl_oracle", False),
    ("smf.unit_disk_adjacency", (smf, analytics, engine), "unit_disk_adjacency", False),
    ("smf.bfs_hops", (smf, analytics, engine), "bfs_hops", False),
    ("channel.per_at", (channel,), "per_at", False),
    ("mobility.advance", (engine,), "advance", False),
    ("analytics.connectivity_sample", (engine,), "connectivity_sample", False),
    ("analytics.build_world", (engine,), "build_world", False),
    ("analytics.aggregate", (analytics, cli), "aggregate", False),
    ("cli.write_outputs", (cli,), "write_outputs", False),
]


class Layers:
    def __init__(self):
        self.calls: Counter = Counter()
        self.useful: Counter = Counter()
        self.busy: dict = defaultdict(float)
        self.depth = 0
        self.top = 0.0           # time in wrappers entered at depth zero
        self._saved: list = []
        # totals over the traced pass, filled in by the benchmark
        self.wall = 0.0          # set-up, simulation, aggregation, outputs
        self.engine_self = 0.0   # Run.run time outside any wrapper
        self.heap_pushes = 0
        self.tx = 0
        self.rx = 0
        self.trace_records = 0

    def _wrap(self, name: str, fn, count_useful: bool):
        calls, useful, busy = self.calls, self.useful, self.busy

        def timed(*args, **kwargs):
            self.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.depth -= 1
                busy[name] += dt
                calls[name] += 1
                if self.depth == 0:
                    self.top += dt
            if count_useful and result:
                useful[name] += 1
            return result

        return timed

    def install(self) -> None:
        for name, owners, attr, count_useful in _TARGETS:
            original = getattr(owners[0], attr)
            wrapper = self._wrap(name, original, count_useful)
            for owner in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
