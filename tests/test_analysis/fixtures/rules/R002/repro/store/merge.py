"""R002 fixture: a set-ordered merge inside the store.

``store/`` is in R002's scope because merge order becomes interner and
counter order there.  Parsed, never imported.
"""

from typing import List, Set


class ShardStore:
    def merge_from(self, other: "ShardStore") -> None:
        pass

    def absorb_bad(self, shards: Set["ShardStore"]) -> None:
        for shard in shards:                  # R002: set-ordered merge
            self.merge_from(shard)

    def absorb_ok(self, shards: List["ShardStore"]) -> None:
        for shard in shards:
            self.merge_from(shard)
