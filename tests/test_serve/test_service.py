"""ServiceCore execution semantics and the asyncio shell.

The sync path (``core.ingest``) is the reference semantics; the
asyncio :class:`SelectionService` must add nothing to it.  Degradation
ladder cases drive chaos through the *sequenced* admin path so they
stay replayable.
"""

import asyncio

import pytest

from repro.common.simtime import to_ticks
from repro.serve.core import ServeConfig, ServiceCore
from repro.serve.loadgen import LoadSpec, make_core
from repro.serve.protocol import (
    STATUS_DEGRADED,
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    admin_arrival,
    feedback_arrival,
    rank_arrival,
    register_arrival,
)
from repro.serve.replay import replay_log
from repro.serve.service import SelectionService


def _core(config=None, seed=0):
    spec = LoadSpec(seed=seed, config=config or ServeConfig(seed=seed))
    return make_core(spec)


def _rank(now, seq, client="c0", tenant="t0", ttl=2.0):
    return rank_arrival(
        now=now,
        client_id=client,
        client_seq=seq,
        tenant=tenant,
        category="weather_report",
        perspective=client,
        ttl=ttl,
    )


def _admin(now, seq, action):
    return admin_arrival(
        now=now, client_id="_admin/c0", client_seq=seq, action=action
    )


class TestCoreExecution:
    def test_rank_ok_returns_full_ranking(self):
        core = _core()
        (response,) = core.ingest([_rank(1.0, 0)])
        assert response.status == STATUS_OK
        assert response.ok and not response.degraded
        targets = [target for target, _ in response.ranking]
        assert len(targets) == 8  # 4 providers x 2 services
        assert targets == sorted(
            targets,
            key=lambda t: (-dict(response.ranking)[t], t),
        )

    def test_feedback_shifts_scores(self):
        core = _core()
        before = core.final_scores()
        core.ingest(
            [
                feedback_arrival(
                    now=1.0,
                    client_id="c0",
                    client_seq=0,
                    tenant="t0",
                    rater="c0",
                    target=sorted(before)[0],
                    rating=1.0,
                )
            ]
        )
        after = core.final_scores()
        assert after[sorted(before)[0]] > before[sorted(before)[0]]

    def test_register_and_deregister_roundtrip(self):
        core = _core()
        (response,) = core.ingest(
            [
                register_arrival(
                    now=1.0,
                    client_id="ops",
                    client_seq=0,
                    tenant="t0",
                    service="svc_new",
                    provider="prov_new",
                    category="weather_report",
                )
            ]
        )
        assert response.status == STATUS_OK
        (ranked,) = core.ingest([_rank(2.0, 1, client="c9")])
        assert "svc_new" in dict(ranked.ranking)
        # The catalogue keeps scoring deregistered services (history
        # remains canonical); only fresh rankings drop them.
        assert "svc_new" in core.final_scores()

    def test_ttl_expiry_skips_execution(self):
        config = ServeConfig(drain_rate=1.0, max_depth=64)
        core = _core(config=config)
        scores_before = core.final_scores()
        # With 1 request/sim-unit drain, the third rank waits ~2 sim
        # units > ttl of 1.
        responses = core.ingest(
            [_rank(1.0, i, ttl=1.0) for i in range(3)]
        )
        statuses = [r.status for r in responses]
        assert statuses[0] == STATUS_OK
        assert STATUS_EXPIRED in statuses
        expired = [r for r in responses if r.status == STATUS_EXPIRED]
        assert all(r.ranking == () for r in expired)
        assert core.final_scores() == scores_before

    def test_responses_sorted_by_tick(self):
        core = _core()
        core.ingest([_rank(2.0, 0), _rank(1.0, 0, client="c1")])
        ticks = [r.tick for r in core.responses]
        assert ticks == sorted(ticks)

    def test_rejected_arrivals_get_typed_responses(self):
        config = ServeConfig(tenant_rate=1.0, tenant_burst=1)
        core = _core(config=config)
        responses = core.ingest([_rank(1.0, i) for i in range(3)])
        assert responses[0].status == STATUS_OK
        assert {r.status for r in responses[1:]} == {"throttled"}
        assert all(
            "admission rejected" in (r.error or "") for r in responses[1:]
        )


class TestDegradationLadder:
    def test_outage_serves_stale_rankings(self):
        core = _core()
        (fresh,) = core.ingest([_rank(1.0, 0)])
        assert fresh.status == STATUS_OK
        core.ingest([_admin(2.0, 0, "fail_registry")])
        (degraded,) = core.ingest([_rank(3.0, 1)])
        assert degraded.status == STATUS_DEGRADED
        assert degraded.degraded and degraded.ok
        assert degraded.ranking == fresh.ranking
        assert dict(degraded.detail)["source"] == "stale_fallback"
        assert "RegistryError" in (degraded.error or "")

    def test_outage_without_cache_fails_typed(self):
        core = _core()
        core.ingest([_admin(1.0, 0, "fail_registry")])
        (response,) = core.ingest([_rank(2.0, 0)])
        assert response.status == STATUS_FAILED
        assert response.ranking == ()

    def test_heal_restores_fresh_rankings(self):
        core = _core()
        core.ingest([_rank(1.0, 0)])
        core.ingest([_admin(2.0, 0, "fail_registry")])
        core.ingest([_rank(3.0, 1)])
        core.ingest([_admin(4.0, 1, "heal_registry")])
        (response,) = core.ingest([_rank(20.0, 2)])
        assert response.status == STATUS_OK

    def test_rebuild_window_degrades_then_recovers(self):
        core = _core()
        (fresh,) = core.ingest([_rank(1.0, 0)])
        core.ingest([_admin(2.0, 0, "begin_rebuild")])
        (during,) = core.ingest([_rank(3.0, 1)])
        core.ingest([_admin(4.0, 1, "end_rebuild")])
        (after,) = core.ingest([_rank(20.0, 2)])
        assert during.status == STATUS_DEGRADED
        assert during.ranking == fresh.ranking
        assert "RebuildInProgressError" in (during.error or "")
        assert after.status == STATUS_OK

    def test_breaker_opens_under_sustained_outage(self):
        core = _core()
        core.ingest([_admin(0.5, 0, "fail_registry")])
        for i in range(4):
            core.ingest([_rank(1.0 + i * 0.01, i)])
        breaker = core.breakers.for_target("registry")
        assert breaker.state.name == "OPEN"
        # Scoring backend breaker is isolated from the registry outage.
        assert core.breakers.for_target("scoring").state.name == "CLOSED"

    def test_retry_backoff_accounted_in_latency(self):
        core = _core()
        core.ingest([_rank(1.0, 0)])
        core.ingest([_admin(2.0, 0, "fail_registry")])
        (degraded,) = core.ingest([_rank(3.0, 1)])
        # One failed attempt + one retry: latency strictly exceeds the
        # pure queue service time.
        (baseline,) = [
            r
            for r in core.responses
            if r.status == STATUS_OK and r.kind == "rank"
        ]
        assert degraded.latency > baseline.latency


class TestAsyncService:
    def _run(self, coroutine):
        return asyncio.run(coroutine)

    def test_roundtrip_matches_sync_semantics(self):
        async def drive():
            core = _core()
            async with SelectionService(core, workers=2) as service:
                response = await service.rank_for_consumer(
                    now=1.0,
                    client_id="c0",
                    tenant="t0",
                    category="weather_report",
                    perspective="c0",
                )
            return core, response

        core, response = self._run(drive())
        sync_core = _core()
        (expected,) = sync_core.ingest(
            [_rank(1.0, 0)]
        )
        assert response == expected
        assert core.log.sha256() == sync_core.log.sha256()

    def test_concurrent_burst_forms_one_canonical_batch(self):
        async def drive(workers):
            core = _core()
            async with SelectionService(core, workers=workers) as service:
                await asyncio.gather(
                    *(
                        service.rank_for_consumer(
                            now=1.0 + i / 16.0,
                            client_id=f"c{i}",
                            tenant=f"t{i % 2}",
                            category="weather_report",
                        )
                        for i in range(6)
                    )
                )
            return core

        cores = [self._run(drive(workers)) for workers in (1, 2, 4)]
        shas = {core.log.sha256() for core in cores}
        assert len(shas) == 1
        batches = {record.batch for record in cores[0].log}
        assert batches == {0}

    def test_live_log_replays_byte_identically(self):
        async def drive():
            core = _core()
            async with SelectionService(core, workers=3) as service:
                await asyncio.gather(
                    *(
                        service.rank_for_consumer(
                            now=1.0 + i / 8.0,
                            client_id=f"c{i % 3}",
                            tenant="t0",
                            category="weather_report",
                        )
                        for i in range(9)
                    )
                )
            return core

        core = self._run(drive())
        result = replay_log(lambda: _core(), core.log)
        assert result.responses == tuple(core.responses)
        assert result.final_scores == core.final_scores()

    def test_submit_requires_running_service(self):
        async def drive():
            core = _core()
            service = SelectionService(core)
            with pytest.raises(RuntimeError):
                await service.submit(_rank(1.0, 0))

        self._run(drive())

    def test_duplicate_arrival_key_rejected(self):
        async def drive():
            core = _core()
            async with SelectionService(core) as service:
                first = asyncio.ensure_future(
                    service.submit(_rank(1.0, 0))
                )
                await asyncio.sleep(0)
                with pytest.raises(ValueError):
                    await service.submit(_rank(1.0, 0))
                await first

        self._run(drive())

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SelectionService(_core(), workers=0)


class _CoreFault(Exception):
    pass


class TestCoreFailures:
    """A core exception reaches the caller of ``submit``; no task dies,
    nobody waits forever and ``stop()`` returns.  Every drive is bounded
    by ``wait_for`` so a regression fails instead of hanging."""

    def _run(self, coroutine):
        return asyncio.run(asyncio.wait_for(coroutine, timeout=10))

    def test_execute_exception_reaches_its_submitter(self, monkeypatch):
        execute = ServiceCore.execute

        def faulty(core, record):
            if record.arrival.client_id == "c1":
                raise _CoreFault("execute")
            return execute(core, record)

        monkeypatch.setattr(ServiceCore, "execute", faulty)

        async def drive():
            async with SelectionService(_core(), workers=2) as service:
                return await asyncio.gather(
                    *(
                        service.submit(_rank(1.0, 0, client=f"c{i}"))
                        for i in range(3)
                    ),
                    return_exceptions=True,
                )

        first, failed, last = self._run(drive())
        assert isinstance(failed, _CoreFault)
        assert first.status == STATUS_OK
        assert last.status == STATUS_OK

    def test_admit_batch_exception_fails_the_batch(self, monkeypatch):
        admit_batch = ServiceCore.admit_batch
        calls = []

        def faulty(core, batch):
            calls.append(len(batch))
            if len(calls) == 1:
                raise _CoreFault("admit_batch")
            return admit_batch(core, batch)

        monkeypatch.setattr(ServiceCore, "admit_batch", faulty)

        async def drive():
            async with SelectionService(_core()) as service:
                failed = await asyncio.gather(
                    *(
                        service.submit(_rank(1.0, 0, client=f"c{i}"))
                        for i in range(2)
                    ),
                    return_exceptions=True,
                )
                answered = await service.submit(_rank(2.0, 1))
            return failed, answered

        failed, answered = self._run(drive())
        assert calls == [2, 1]
        assert all(isinstance(r, _CoreFault) for r in failed)
        assert answered.status == STATUS_OK

    def test_stop_fails_unanswered_arrivals(self):
        async def drive():
            service = SelectionService(_core())
            await service.start()
            pending = asyncio.ensure_future(service.submit(_rank(1.0, 0)))
            await asyncio.sleep(0)
            await service.stop()
            with pytest.raises(RuntimeError, match="stopped"):
                await pending

        self._run(drive())


class TestReplayDivergence:
    def test_tampered_log_raises(self):
        from repro.serve.protocol import IngestLog, IngestRecord
        from repro.serve.replay import ReplayDivergenceError

        core = _core()
        core.ingest([_rank(1.0, 0), _rank(1.5, 1)])
        records = list(core.log)
        tampered = IngestRecord(
            tick=records[1].tick,
            batch=records[1].batch,
            decision=records[1].decision,
            wait_ticks=records[1].wait_ticks + 7,
            exec_tick=records[1].exec_tick,
            arrival=records[1].arrival,
        )
        bad_log = IngestLog()
        bad_log.append(records[0])
        bad_log.append(tampered)
        with pytest.raises(ReplayDivergenceError):
            replay_log(lambda: _core(), bad_log)


class TestArrivalValidation:
    def test_rating_bounds_enforced(self):
        with pytest.raises(Exception):
            feedback_arrival(
                now=1.0,
                client_id="c0",
                client_seq=0,
                tenant="t0",
                rater="c0",
                target="svc",
                rating=1.5,
            )

    def test_unknown_admin_action_rejected(self):
        with pytest.raises(Exception):
            admin_arrival(
                now=1.0, client_id="a", client_seq=0, action="explode"
            )

    def test_ticks_derived_from_sim_time(self):
        arrival = _rank(1.0, 0)
        assert arrival.client_tick == to_ticks(1.0)


class TestServeConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slo": 1.0},
            {"drain_rate": 0.0},
            {"drain_rate": -1.0},
            {"tenant_rate": -4.0},
            {"max_depth": 0},
            {"tenant_burst": 0},
            {"retry_attempts": -1},
            {"stale_max_age": 0.0},
            {"retry_attempts": 0},
            {"breaker_threshold": 2.0},
            {"breaker_window": 0},
            {"breaker_recovery": 0.0},
            {"breaker_min_calls": 9},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        from repro.common.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServeConfig(**kwargs)
