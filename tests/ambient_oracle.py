"""One run of the ambient-nondeterminism oracle.

The canonical bytes (the zoo outcomes, a sharded run, the Figure-2
trace and the serve run's four hashes) must be a pure function of
seeds and sim time.  ``tests/test_ambient_oracle.py`` checks that by
running this module twice, in two fresh processes that differ in
every ambient source R001 names, and comparing what they print::

    PYTHONHASHSEED=1 python -m tests.ambient_oracle '<config json>'

Before ``repro`` is imported, :func:`install` seeds the global
``random`` and ``numpy.random`` state from ``config["seed"]`` and
replaces every name in ``config["names"]`` (R001's banned names and
its timers) with a deterministic fake: one clock, read by every
time and datetime reader, that starts at ``config["clock"][0]`` and
steps by ``config["clock"][1]`` seconds per read; seeded entropy for
``os.urandom`` and uuids; a fixed pid.  A fake clock, not a real
clock plus an offset: its readings are fixed by the configuration, so
a verdict reproduces, and with different bases and steps no reading,
nor any duration between the same two reads, agrees between the runs.

Then it counts calls to every canonical sink (:data:`SINKS`), runs the
pinned workloads serially and prints one JSON object: ``bytes`` (the
workloads' sha256s) and ``sinks`` (sink -> call count).
"""

from __future__ import annotations

import datetime
import functools
import importlib
import json
import random
import sys
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, List

#: (module, class, attribute) of every canonical sink; ``__init__``
#: counts constructions
SINKS = (
    ("repro.store.store", "EventStore", "append"),
    ("repro.store.store", "EventStore", "extend"),
    ("repro.store.store", "EventStore", "extend_coded"),
    ("repro.obs.trace", "Tracer", "emit"),
    ("repro.obs.recorder", "Recorder", "count"),
    ("repro.obs.recorder", "Recorder", "gauge"),
    ("repro.obs.recorder", "Recorder", "observe"),
    ("repro.obs.recorder", "Recorder", "event"),
    ("repro.obs.recorder", "Recorder", "span"),
    ("repro.obs.trace", "TelemetrySnapshot", "__init__"),
    ("repro.core.scenarios", "ScenarioResult", "__init__"),
    ("repro.serve.protocol", "Arrival", "__init__"),
    ("repro.serve.protocol", "IngestRecord", "__init__"),
    ("repro.serve.ingest", "AdmissionController", "admit"),
)


def sink_label(cls: str, attr: str) -> str:
    return cls if attr == "__init__" else f"{cls}.{attr}"


def _fakes(config: Dict[str, Any]) -> Dict[str, Callable[..., Any]]:
    """dotted name -> its deterministic stand-in for this run."""
    base, step = config["clock"]
    reads = [0]
    entropy = random.Random(config["seed"])

    def clock() -> float:
        reads[0] += 1
        return base + step * reads[0]

    def clock_ns() -> int:
        return int(clock() * 1e9)

    def urandom(n: int) -> bytes:
        return entropy.randbytes(n)

    utc = datetime.timezone.utc
    seconds = {
        name: clock
        for name in ("time.time", "time.perf_counter", "time.monotonic",
                     "time.process_time")
    }
    return {
        **seconds,
        **{f"{name}_ns": clock_ns for name in seconds},
        "datetime.datetime.now": classmethod(
            lambda cls, tz=None: cls.fromtimestamp(clock(), tz)
        ),
        "datetime.datetime.utcnow": classmethod(
            lambda cls: cls.fromtimestamp(clock(), utc).replace(tzinfo=None)
        ),
        "datetime.datetime.today": classmethod(
            lambda cls: cls.fromtimestamp(clock())
        ),
        "datetime.date.today": classmethod(
            lambda cls: cls.fromtimestamp(clock())
        ),
        "uuid.uuid1": lambda node=None, clock_seq=None: uuid.UUID(
            bytes=urandom(16), version=1
        ),
        "uuid.uuid4": lambda: uuid.UUID(bytes=urandom(16), version=4),
        "os.urandom": urandom,
        "os.getpid": lambda: config["pid"],
    }


def _replace(dotted: str, fake: Any) -> None:
    """Bind *fake* at *dotted*; a method of a builtin class goes on a
    subclass that takes the class's place in its module."""
    module_name, *owners, attr = dotted.split(".")
    module = importlib.import_module(module_name)
    owner: Any = module
    for name in owners:
        owner = getattr(owner, name)
    try:
        setattr(owner, attr, fake)
    except TypeError:  # datetime.datetime and datetime.date
        setattr(module, owner.__name__, type(owner.__name__, (owner,),
                                             {attr: fake}))


def install(config: Dict[str, Any]) -> None:
    """Seed the global RNGs and fake every name in ``config["names"]``."""
    fakes = _fakes(config)
    missing = sorted(set(config["names"]) - set(fakes))
    if missing:
        raise KeyError(f"the oracle has no fake for {missing}")
    for dotted in config["names"]:
        _replace(dotted, fakes[dotted])
    # SystemRandom (and so secrets) bound os.urandom at import time
    random._urandom = fakes["os.urandom"]  # type: ignore[attr-defined]
    random.seed(config["seed"])
    import numpy

    numpy.random.seed(config["seed"])


def count_sinks() -> Dict[str, int]:
    """Wrap every sink in :data:`SINKS` with a call counter."""
    counts: Dict[str, int] = {}
    for module_name, cls_name, attr in SINKS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        label = sink_label(cls_name, attr)
        counts[label] = 0

        def counted(*args: Any, _f: Any = getattr(cls, attr),
                    _label: str = label, **kwargs: Any) -> Any:
            counts[_label] += 1
            return _f(*args, **kwargs)

        setattr(cls, attr, functools.wraps(getattr(cls, attr))(counted))
    return counts


def workload_bytes(trace_dir: Path) -> Dict[str, Any]:
    """The sha256s the pin tests assert, computed serially, plus two
    small runs that reach the sinks those miss: a registry outage's
    breaker transitions (``Recorder.event``) and a sharded model
    without a coded ingest (``EventStore.extend``)."""
    import dataclasses

    from repro.experiments import parallel, sharded
    from repro.serve.loadgen import run_loadgen
    from tests.test_serve.test_loadgen import CHAOS
    from tests.test_serve.test_pinned_hashes import steady_hashes
    from tests.zoo_pin import (
        SHARD_SPEC, digests, fig2_digest, shard_digest, specs,
    )

    peertrust = dataclasses.replace(SHARD_SPEC, model="peertrust")
    return {
        "zoo": digests([parallel.run_trial(spec) for spec in specs()]),
        "shard": shard_digest(sharded.SERIAL),
        "fig2": fig2_digest(trace_dir),
        "serve": steady_hashes(),
        "serve_chaos": run_loadgen(CHAOS).identity(),
        "shard_peertrust": shard_digest(sharded.SERIAL, peertrust),
    }


def main(argv: List[str]) -> int:
    config = json.loads(argv[0])
    install(config)
    counts = count_sinks()
    report = {"bytes": workload_bytes(Path(config["trace_dir"])),
              "sinks": counts}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
