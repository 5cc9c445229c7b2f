"""Wire messages and their over-the-air byte accounting.

These are not real codecs: byte sizes are fixed accounting constants so that
over-the-air totals can be compared across protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

DISCOVERY_BYTES = 14
ACK_BYTES = 20
DATA_BASE_HEADER_BYTES = 4
DEST_PAIR_BYTES = 3
SMF_TTL_HEADER_BYTES = 2
REFRESH_BYTES = 20  # a distance-refresh message on the air, data header included

MsgId = tuple  # (origin node id, per-origin sequence number)


@dataclass(slots=True)
class Packet:
    kind: str                 # "discovery" | "ack" | "data"
    hop_counter: int          # hops this copy has traveled so far
    msg_id: MsgId             # stable across retransmissions; [0] is the origin
    epoch: int = 0            # discovery and ack only
    # remaining hops after this transmission: a discovery's budget, or a
    # flooded (SMF) data copy's; None on GCN data and ACKs
    ttl: Optional[int] = None
    # ack
    obligate: Optional[int] = None  # node id of the first-heard discovery sender
    acp: float = 0.0
    # data
    destinations: list = field(default_factory=list)  # [(dest, mrd)]; [] = one-to-all
    payload_bytes: int = 0

    def wire_bytes(self) -> int:
        if self.kind == "discovery":
            return DISCOVERY_BYTES
        if self.kind == "ack":
            return ACK_BYTES
        if self.ttl is not None:  # flooded
            return self.payload_bytes + SMF_TTL_HEADER_BYTES
        return (self.payload_bytes + DATA_BASE_HEADER_BYTES
                + DEST_PAIR_BYTES * len(self.destinations))
