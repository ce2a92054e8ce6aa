"""Decentralized substrates.

Peer-to-peer web services (Section 4/5 of the paper) need somewhere to
put reputation data when there is no central registry.  This package
provides the three substrate families the surveyed decentralized systems
assume:

* an **unstructured overlay** with TTL-bounded flooding (Gnutella-style
  — what XRep polls over),
* **P-Grid**, the binary-trie structured overlay of Aberer &
  Despotovic and Vu et al., with prefix routing and replication, and
* a **Chord-like DHT** used by distributed EigenTrust's score managers.

Plus **referral networks** (Yu & Singh; Yolum & Singh) where agents
answer queries with either an opinion or a referral to a neighbour.
"""

from repro.p2p.node import Peer
from repro.p2p.unstructured import UnstructuredOverlay
from repro.p2p.pgrid import PGrid, PGridPeer
from repro.p2p.dht import ChordDHT
from repro.p2p.discovery import DistributedServiceRegistry
from repro.p2p.referral import Referral, ReferralNetwork, ReferralResponse
from repro.p2p.hashing import stable_hash, stable_hashes, to_bits

__all__ = [
    "ChordDHT",
    "DistributedServiceRegistry",
    "PGrid",
    "PGridPeer",
    "Peer",
    "Referral",
    "ReferralNetwork",
    "ReferralResponse",
    "UnstructuredOverlay",
    "stable_hash",
    "stable_hashes",
    "to_bits",
]
