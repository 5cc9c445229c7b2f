"""Broadcast channel: a packet error rate over the pairs geometry puts in
range, with an optional flat interference-loss overlay.

A flat PER is priced once per run, and a transmission samples the sender's
unit-disk row with it; only a curve of distance prices pairs.  The overlay
follows the success-rate scaling rule: the effective success probability
at distance d is (1 - base_loss) * (1 - per(d)).

`sample` is the one sampling rule: without a draw, an entry whose PER is 0
hears and a flat channel's certain loss leaves every entry unheard; any
other entry hears when its one draw from the channel stream is at least
its PER.  It hands each hearer to a consumer as soon as that hearer is
drawn, so no hearer list is built; the consumer runs between draws, in row
order, and must not draw from the channel stream.
"""

from __future__ import annotations

import random

from .model import ChannelSpec


def default_curve_points() -> list:
    """Synthetic logistic-shaped PER table: lossless to 20 m, certain loss at 60 m.

    Stands in for a measured low-power-radio error curve; a scenario file
    replaces it with its own `channel.curve_points`.
    """
    import math

    def logistic(d):
        return 1.0 / (1.0 + math.exp(-(d - 40.0) / 5.0))

    lo, hi = logistic(20.0), logistic(60.0)
    # rescale so the table hits exactly 0 at 20 m and 1 at 60 m
    return [(float(d), (logistic(d) - lo) / (hi - lo)) for d in range(20, 65, 5)]


def _curve_per(points: list, d: float) -> float:
    """Piecewise-linear interpolation, clamped flat beyond the endpoints."""
    if d <= points[0][0]:
        return points[0][1]
    if d >= points[-1][0]:
        return points[-1][1]
    for (d0, p0), (d1, p1) in zip(points, points[1:]):
        if d <= d1:
            frac = (d - d0) / (d1 - d0)
            return p0 + frac * (p1 - p0)
    return points[-1][1]


def per_at(spec: ChannelSpec, d: float) -> float:
    """Packet error rate at distance d, including the base-loss overlay, for
    a pair already in range."""
    per = (spec.flat_per if spec.flat_per is not None
           else _curve_per(spec.curve_points, d))
    return 1.0 - (1.0 - spec.base_loss) * (1.0 - per)


def sample(row: list, per, rng: random.Random, take, pkt, sender) -> None:
    """Sample who hears one transmission, and call `take(node, pkt, sender)`
    for each hearer as it is drawn, in row order.

    A flat channel passes the sender's unit-disk row (ids in id order) and
    its one PER: at per <= 0 every entry hears and nothing is drawn, at
    per >= 1 nobody hears, and otherwise an entry hears when its draw is
    >= per.  A curve passes per None and a priced row [(NodeId, per)], each
    per < 1: an entry hears when its per is <= 0 or its draw is >= its per.
    Either way one `rng.random()` is drawn per lossy entry, in row order, so
    the stream is reproducible.  `take` runs between draws, so it must
    neither draw from `rng` nor change `row`.
    """
    if per is None:
        rnd = rng.random
        for node, p in row:
            if p <= 0.0 or rnd() >= p:
                take(node, pkt, sender)
    elif per <= 0.0:
        for node in row:
            take(node, pkt, sender)
    elif per < 1.0:
        rnd = rng.random
        for node in row:
            if rnd() >= per:
                take(node, pkt, sender)
