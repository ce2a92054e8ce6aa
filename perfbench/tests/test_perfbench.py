"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import inspect
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import layers, pace, suite
from perfbench.spans import Tracer
from repro.experiments import parallel, sharded
from repro.serve.protocol import IngestLog

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


# -- the benchmark file and the printed metrics -------------------------------


def test_benchmark_file_names_the_code_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        suite.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        layers.PER_LAYER
    )
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _run("--workload", workload, "--seed", "5", "--seconds", "0.01",
                "--trace", trace, "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    listed = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_gives_same_inputs():
    sizes = suite.TINY
    assert suite.ModelZoo.specs(7, 2, 3) == suite.ModelZoo.specs(7, 2, 3)
    requests = sizes.serve_requests
    assert suite.ServeSteady.spec(7, requests) == suite.ServeSteady.spec(
        7, requests
    )
    assert suite.derive(7, 1) == suite.derive(7, 1) != suite.derive(8, 1)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "serve_steady", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- tracer mechanics ----------------------------------------------------------


class _Layer:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return sum(range(n))

    def broken(self):
        raise ValueError("boom")

    async def start(self):
        return self.inner(10)


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    with tracer.installed_while():
        tracer.wrap(_Layer, "outer", "outer")
        tracer.wrap(_Layer, "inner", "inner")
        with tracer.span("root"):
            _Layer().outer(20_000)
    assert tracer.installed == 0
    assert tracer.names == ["root", "outer", "inner", "inner"]
    assert tracer.parents == [-1, 0, 1, 1]
    summary = tracer.summary()
    own = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    assert summary.self_ns[1] == own[1] - own[2] - own[3]
    assert sum(summary.self_ns) == own[0]
    assert summary.count("inner") == 2


def test_same_group_nesting_counts_once_and_errors_close_spans():
    tracer = Tracer()
    with tracer.installed_while():
        tracer.wrap(_Layer, "outer", "outer", group="layer")
        tracer.wrap(_Layer, "inner", "inner", group="layer")
        tracer.wrap(_Layer, "broken", "broken")
        tracer.wrap(_Layer, "start", "start")
        _Layer().outer(10)
        with pytest.raises(ValueError):
            _Layer().broken()
        assert asyncio.run(_Layer().start()) == 45
    summary = tracer.summary()
    assert tracer.names == ["outer", "inner", "inner", "broken", "start",
                            "inner"]
    assert tracer.outer == [True, False, False, True, True, True]
    assert tracer.parents[5] == 4
    assert summary.count("layer") == 2  # outer, then start's inner
    assert tracer.ends[3] >= tracer.starts[3]
    assert summary.inclusive_ns["layer"] == (
        tracer.ends[0] - tracer.starts[0] + tracer.ends[5] - tracer.starts[5]
    )


def test_coverage_leaves_out_the_root_self_time():
    tracer = Tracer()
    with tracer.installed_while():
        tracer.wrap(_Layer, "inner", "inner")
        start = time.perf_counter_ns()
        with tracer.span(suite.ROOT):
            _Layer().inner(10)
            sum(range(200_000))  # glue no layer claims
        wall_s = (time.perf_counter_ns() - start) / 1e9
    metrics = layers.layer_metrics(
        tracer.summary(), suite.ROOT, wall_s, wall_s, {}
    )
    assert 0.0 < metrics["trace.coverage"] < 0.9
    assert metrics["trace.coverage"] == pytest.approx(
        tracer.summary().self_seconds("inner") / wall_s
    )


def test_request_ids_are_inherited_by_child_spans():
    tracer = Tracer()
    with tracer.installed_while():
        tracer.wrap(_Layer, "outer", "outer",
                    request=lambda args, kwargs: ("client", args[1]))
        tracer.wrap(_Layer, "inner", "inner")
        _Layer().outer(3)
    assert tracer.requests == [("client", 3)] * 3


def _owners():
    """Every class and module the layer table could touch."""
    owners = [
        value for value in vars(layers).values()
        if inspect.isclass(value) or inspect.ismodule(value)
    ]
    owners.append(sharded._Coordinator)
    owners.extend(
        type(layers.default_registry().create(name))
        for name in layers.MODEL_NAMES
    )
    return owners


@pytest.mark.parametrize("workload", list(suite.WORKLOADS))
def test_wrappers_are_restored_after_a_traced_run(workload):
    before = [(owner, dict(vars(owner))) for owner in _owners()]
    world = parallel.world_builder(parallel.DEFAULT_WORLD)
    shard_world = sharded.shard_world_builder(sharded.DEFAULT_SHARD_WORLD)
    result = suite.WORKLOADS[workload].trace(3, 0.01, suite.TINY)
    assert result.correct, result.checks
    assert result.tracer is not None and result.tracer.installed == 0
    assert len(result.tracer) > 0
    for owner, attrs in before:
        after = vars(owner)
        changed = [k for k, v in attrs.items() if after.get(k) is not v]
        assert not changed, f"{owner!r} still wrapped: {changed}"
    assert parallel.world_builder(parallel.DEFAULT_WORLD) is world
    assert sharded.shard_world_builder(sharded.DEFAULT_SHARD_WORLD) is (
        shard_world
    )


def test_install_wraps_then_uninstall_restores():
    original = layers.EventStore.append
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert layers.EventStore.append is not original
        assert tracer.installed > 50
    finally:
        tracer.uninstall()
    assert layers.EventStore.append is original


# -- correctness checks catch tampered outputs ---------------------------------


def test_truncated_ingest_log_fails_the_replay_check():
    spec = suite.ServeSteady.spec(4, suite.TINY.serve_requests)
    report = suite.loadgen.run_loadgen(spec)
    assert suite.ServeSteady.replay_matches(spec, report, report.log)
    truncated = IngestLog(report.log.records[:-3])
    assert not suite.ServeSteady.replay_matches(spec, report, truncated)


def test_flipped_canonical_bytes_fail_the_shard_check():
    spec = suite.ShardWorld.spec(4, suite.TINY.gate_consumers)
    one = suite.ShardWorld.run(spec, 1).canonical_bytes()
    two = suite.ShardWorld.run(spec, 2).canonical_bytes()
    assert suite.ShardWorld.bytes_match(one, two)
    flipped = bytearray(two)
    flipped[len(flipped) // 2] ^= 0x01
    assert not suite.ShardWorld.bytes_match(one, bytes(flipped))


def test_a_stretch_is_paced_by_the_probes_around_it(monkeypatch):
    probes = iter([4.0, 6.0, 10.0])
    monkeypatch.setattr(pace, "probe", lambda: next(probes))
    pacer = pace.Pacer()
    assert pacer.scale() == pytest.approx(
        (pace.REFERENCE_MS / 5.0) ** pace.EXPONENT
    )
    assert pacer.scale() == pytest.approx(
        (pace.REFERENCE_MS / 8.0) ** pace.EXPONENT
    )
    assert pacer.probes == [4.0, 6.0, 10.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert suite.percentile(values, 0.50) == 50
    assert suite.percentile(values, 0.99) == 99
    assert suite.percentile([7.0], 0.99) == 7.0
