"""R001 fixture: timer and pid reads outside the modules that time
themselves.  Parsed, never imported."""

import os
import time


def timed_score():
    started = time.perf_counter()              # R001: timer in models/
    return os.getpid(), started                # R001: pid in models/
