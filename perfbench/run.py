"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve_steady --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrappers
installed; ``--trace 1`` runs one unit of work untraced and once more
under the per-layer wrappers and reports the per-layer metrics.  The
program is imported from ``src/`` next to this directory.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it carry
provenance and diagnostics.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    parser.add_argument(
        "--spans",
        type=Path,
        help="with --trace 1, also write every span as JSON lines here",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_path() -> bool:
    """Put the program and this package on ``sys.path``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program sources not found in {SRC}",
              file=sys.stderr)
        return False
    for entry in (str(ROOT), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    return True


def peak_rss_mb() -> float:
    """Peak resident set of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not _import_path():
        return 2
    import numpy

    from perfbench import layers, suite

    workload = suite.find(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    sizes = suite.TINY if args.size == "tiny" else suite.FULL
    if args.trace:
        result = workload.trace(args.seed, args.seconds, sizes)
        names = layers.PER_LAYER
        if args.spans is not None and result.tracer is not None:
            result.tracer.write_jsonl(args.spans)
    else:
        result = workload.measure(args.seed, args.seconds, sizes)
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        names = suite.END_TO_END
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": multiprocessing.get_start_method(),
        "machine": platform.machine(),
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"info": result.info, "checks": result.checks},
                     sort_keys=True))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": result.metrics[name], "unit": unit}
            for name, unit in names
        },
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
