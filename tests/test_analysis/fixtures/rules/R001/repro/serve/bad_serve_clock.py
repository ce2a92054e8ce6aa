"""R001 fixture: syntactic wall-clock reads in the serve layer.

The serve ingest path stamps arrivals with *caller-supplied* sim time;
reading the wall clock here is exactly the bug the deterministic-replay
gate exists to prevent.  Parsed, never imported.  Timing a client
belongs in ``serve/loadgen.py`` (see that fixture).
"""

import time
from datetime import datetime


def stamp_arrival() -> float:
    now = time.time()              # R001: wall clock in serve path
    return now


def arrival_id() -> str:
    import uuid

    return str(uuid.uuid4())       # R001: nondeterministic id


def log_line() -> str:
    return datetime.now().isoformat()  # R001: wall clock in serve path


def suppressed_stamp() -> float:
    return time.time()  # reprolint: disable=R001 - ops-only log banner
