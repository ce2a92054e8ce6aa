"""The always-on asyncio selection service.

:class:`SelectionService` is a concurrency shell around a synchronous
:class:`~repro.serve.core.ServiceCore`; the shell adds *no* canonical
state of its own, which is how the worker-count invariance gate holds:

* **Submission** registers an :class:`~repro.serve.protocol.Arrival`
  in a reorder buffer and returns a future.  Submission is synchronous
  up to the buffer insert — no awaits — so an arrival is never half
  registered.
* **The sequencer task** waits until the event loop is *quiescent*
  (a full cooperative yield adds no new arrivals — with closed-loop
  clients this means every client is blocked on a pending response),
  then flushes the whole buffer as one batch through
  :meth:`ServiceCore.admit_batch` in canonical ``(client_tick,
  client_id, client_seq)`` order.  Rejected arrivals settle their
  futures during the flush; admitted records enter a FIFO execution
  queue.
* **Worker tasks** pull records FIFO and run
  :meth:`ServiceCore.execute` *synchronously* — execution never
  suspends mid-record, so records execute in exactly log order no
  matter how many workers drain the queue, and every response is
  byte-identical from 1 worker or 8.
* **Failures** never strand a caller: an exception from
  ``execute`` (or from ``admit_batch``, for its whole batch) is raised
  from the affected ``submit`` calls, the task that hit it keeps
  serving, and :meth:`SelectionService.stop` fails whatever is still
  unanswered.

The scheduling batch boundary is also recorded in each
:class:`~repro.serve.protocol.IngestRecord`, so a replay reproduces
not just responses but the exact interleaving of admission and
execution telemetry.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Dict, List, Optional, Tuple, Union

from repro.common.errors import ConfigurationError
from repro.serve.core import ServiceCore
from repro.serve.protocol import (
    DEFAULT_TTL,
    Arrival,
    IngestRecord,
    ServeResponse,
    admin_arrival,
    deregister_arrival,
    feedback_arrival,
    rank_arrival,
    register_arrival,
)

__all__ = ["SelectionService"]


class SelectionService:
    """Async request/response API over a deterministic core."""

    def __init__(self, core: ServiceCore, workers: int = 2) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.core = core
        self.workers = workers
        self._buffer: List[Tuple[Tuple[int, str, int], int, Arrival]] = []
        self._futures: Dict[Tuple[int, str, int], "asyncio.Future[ServeResponse]"] = {}
        self._arrivals = 0
        self._client_seq: Dict[str, int] = {}
        self._queue: "asyncio.Queue[Optional[IngestRecord]]" = asyncio.Queue()
        self._wakeup: Optional[asyncio.Event] = None
        self._tasks: List["asyncio.Task[None]"] = []
        self._running = False

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._wakeup = asyncio.Event()
        loop = asyncio.get_running_loop()
        self._tasks = [loop.create_task(self._sequencer())]
        for _ in range(self.workers):
            self._tasks.append(loop.create_task(self._worker()))

    async def stop(self) -> None:
        if not self._running:
            return
        self._running = False
        assert self._wakeup is not None
        self._wakeup.set()
        for _ in range(self.workers):
            self._queue.put_nowait(None)
        await asyncio.gather(*self._tasks)
        self._tasks = []
        # Arrivals never answered (still buffered, or queued behind the
        # stop sentinels) fail rather than leave their submitters waiting.
        for key in list(self._futures):
            self._settle(key, RuntimeError("service stopped before answering"))
        self._buffer = []
        self._queue = asyncio.Queue()

    async def __aenter__(self) -> "SelectionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    # -- public API ---------------------------------------------------------

    def next_seq(self, client_id: str) -> int:
        """The submitting client's next per-client sequence number."""
        seq = self._client_seq.get(client_id, 0)
        self._client_seq[client_id] = seq + 1
        return seq

    async def submit(self, arrival: Arrival) -> ServeResponse:
        """Submit a pre-built arrival and await its typed response."""
        if not self._running:
            raise RuntimeError("service is not running")
        key = arrival.order_key
        if key in self._futures:
            raise ValueError(f"duplicate arrival key {key!r}")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[ServeResponse]" = loop.create_future()
        self._futures[key] = future
        heapq.heappush(self._buffer, (key, self._arrivals, arrival))
        self._arrivals += 1
        assert self._wakeup is not None
        self._wakeup.set()
        return await future

    async def rank_for_consumer(
        self,
        *,
        now: float,
        client_id: str,
        tenant: str,
        category: str,
        perspective: Optional[str] = None,
        ttl: float = DEFAULT_TTL,
    ) -> ServeResponse:
        return await self.submit(
            rank_arrival(
                now=now,
                client_id=client_id,
                client_seq=self.next_seq(client_id),
                tenant=tenant,
                category=category,
                perspective=perspective,
                ttl=ttl,
            )
        )

    async def submit_feedback(
        self,
        *,
        now: float,
        client_id: str,
        tenant: str,
        rater: str,
        target: str,
        rating: float,
        ttl: float = DEFAULT_TTL,
    ) -> ServeResponse:
        return await self.submit(
            feedback_arrival(
                now=now,
                client_id=client_id,
                client_seq=self.next_seq(client_id),
                tenant=tenant,
                rater=rater,
                target=target,
                rating=rating,
                ttl=ttl,
            )
        )

    async def register_service(
        self,
        *,
        now: float,
        client_id: str,
        tenant: str,
        service: str,
        provider: str,
        category: str,
        version: int = 1,
        ttl: float = DEFAULT_TTL,
    ) -> ServeResponse:
        return await self.submit(
            register_arrival(
                now=now,
                client_id=client_id,
                client_seq=self.next_seq(client_id),
                tenant=tenant,
                service=service,
                provider=provider,
                category=category,
                version=version,
                ttl=ttl,
            )
        )

    async def deregister_service(
        self,
        *,
        now: float,
        client_id: str,
        tenant: str,
        service: str,
        ttl: float = DEFAULT_TTL,
    ) -> ServeResponse:
        return await self.submit(
            deregister_arrival(
                now=now,
                client_id=client_id,
                client_seq=self.next_seq(client_id),
                tenant=tenant,
                service=service,
                ttl=ttl,
            )
        )

    async def admin(
        self, *, now: float, client_id: str, action: str
    ) -> ServeResponse:
        return await self.submit(
            admin_arrival(
                now=now,
                client_id=client_id,
                client_seq=self.next_seq(client_id),
                action=action,
            )
        )

    # -- internals ----------------------------------------------------------

    async def _sequencer(self) -> None:
        assert self._wakeup is not None
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._running:
                return
            # Quiescence: yield until one full cooperative cycle adds no
            # new arrivals.  Ready clients get to register their
            # submissions first, so a flush batch is a complete
            # closed-loop round regardless of coroutine interleaving.
            while True:
                seen = self._arrivals
                await asyncio.sleep(0)
                if self._arrivals == seen:
                    break
            if not self._buffer:
                continue
            self._flush()

    def _flush(self) -> None:
        batch: List[Arrival] = []
        while self._buffer:
            batch.append(heapq.heappop(self._buffer)[2])
        try:
            records = self.core.admit_batch(batch)
        except Exception as exc:
            # The whole batch failed to admit: every submitter gets the
            # error, and the sequencer lives on for later batches.
            for arrival in batch:
                self._settle(arrival.order_key, exc)
            return
        for record in records:
            if record.admitted:
                self._queue.put_nowait(record)
            else:
                self._execute(record)

    def _execute(self, record: IngestRecord) -> None:
        key = record.arrival.order_key
        try:
            response = self.core.execute(record)
        except Exception as exc:
            # Forward to the submitter; the worker stays alive so the
            # rest of the queue is still answered.
            self._settle(key, exc)
            return
        self._settle(key, response)

    def _settle(
        self,
        key: Tuple[int, str, int],
        outcome: Union[ServeResponse, Exception],
    ) -> None:
        future = self._futures.pop(key)
        if future.cancelled():
            return
        if isinstance(outcome, Exception):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)

    async def _worker(self) -> None:
        while True:
            record = await self._queue.get()
            if record is None:
                return
            self._execute(record)
