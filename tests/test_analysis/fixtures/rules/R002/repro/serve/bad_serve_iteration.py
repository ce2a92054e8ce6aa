"""R002 fixture: unordered iteration on the serve scoring path.

``serve/`` is in R002's scope: a set iterated while building a batch
or a per-tenant table puts hash-salted order into the ingest log.
Parsed, never imported.  Every finding here belongs to R002 alone.
"""

from typing import Dict, List, Set

PENDING_TENANTS: Set[str] = {"t0", "t1"}


class BatchBuilder:
    def __init__(self) -> None:
        self._tenants: Set[str] = set()

    def drain_bad(self) -> List[str]:
        out = []
        for tenant in self._tenants:      # R002: set iteration
            out.append(tenant)
        return out

    def table_bad(self) -> Dict[str, int]:
        return {tenant: 0 for tenant in PENDING_TENANTS}  # R002

    def drain_ok(self) -> List[str]:
        return [tenant for tenant in sorted(self._tenants)]

    def size_ok(self) -> int:
        return len(self._tenants)

    def member_ok(self, tenant: str) -> bool:
        return tenant in self._tenants
