"""ServiceDaemon: the asyncio shell around the deterministic core.

The daemon owns two coroutines on one event loop:

* the **arrival task** walks an open-loop submission schedule
  (``(submit_t, job)`` pairs from
  :func:`repro.trace.generator.open_loop_arrivals`), sleeping on the
  :class:`~repro.service.clock.Clock` until each arrival instant and
  submitting to the core — arrivals never slow down because the
  service is busy, which is what makes overload reachable;
* the **pump task** advances the core to "now" whenever something can
  happen: a completion deadline from the core's heap, or a wake-up
  poked by submissions/cancels/drains arriving from HTTP handler
  threads.

Both only read time through the clock, so the whole daemon runs under
a :class:`~repro.service.clock.VirtualClock` in tests — ``await
clock.run_until(t)`` plays hours of service traffic with zero
wall-clock sleeps and a deterministic interleaving.  Under a
:class:`~repro.service.clock.WallClock` the same code is ``repro
serve``.

The daemon is also the **control facade** the HTTP layer calls: the
``control=`` object handed to :class:`~repro.obs.live.server
.LiveServer` is this class.  Control methods are thread-safe (the core
locks internally) and wake the pump across threads via
``loop.call_soon_threadsafe``, so a submission is dispatched at the
next loop turn rather than at the next poll.  Planning never holds the
core's lock (see :mod:`repro.service.core`), so status reads answer
while the pump waits for a plan.
"""

from __future__ import annotations

import asyncio
import threading
from typing import TYPE_CHECKING, Iterable, Optional

from repro.service.clock import Clock
from repro.service.core import ServiceCore
from repro.service.wire import job_from_wire

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dag.job import Job


class ServiceDaemon:
    """Asyncio pump + arrival driver + control facade over a core."""

    def __init__(
        self,
        core: ServiceCore,
        clock: Clock,
        *,
        arrivals: "Optional[Iterable[tuple[float, Job]]]" = None,
        drain_after: "Optional[float]" = None,
    ) -> None:
        self.core = core
        self.clock = clock
        self.arrivals = arrivals
        #: Auto-drain once the arrival schedule is exhausted and service
        #: time passes this instant (``repro serve --drain-after``).
        self.drain_after = drain_after
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._wake: "Optional[asyncio.Event]" = None
        self._stopped = False
        self._lock = threading.Lock()

    # -- control facade (HTTP handler threads land here) ---------------- #

    def submit(self, job: "Job", *, service_id: "str | None" = None) -> dict:
        """Admit a job; returns its lifecycle record as a dict.

        Raises :class:`~repro.service.state.RejectedSubmission` on a
        typed load-shed verdict (mapped to 429/503/409/413 upstream).
        """
        record = self.core.submit(job, service_id=service_id)
        self.poke()
        return record.to_dict()

    def submit_wire(self, payload: dict) -> dict:
        """Wire-format submission (the ``POST /service/submit`` body)."""
        return self.submit(job_from_wire(payload))

    def cancel(self, service_id: str) -> "Optional[dict]":
        record = self.core.cancel(service_id)
        self.poke()
        return record.to_dict() if record is not None else None

    def drain(self) -> dict:
        stats = self.core.drain()
        self.poke()
        return stats

    def stats(self) -> dict:
        return self.core.stats()

    def job(self, service_id: str) -> "Optional[dict]":
        record = self.core.status(service_id)
        return record.to_dict() if record is not None else None

    def jobs_list(self) -> "list[dict]":
        return [r.to_dict() for r in self.core.jobs_snapshot()]

    def poke(self) -> None:
        """Wake the pump; safe from any thread, no-op before ``run``."""
        loop, wake = self._loop, self._wake
        if loop is None or wake is None or loop.is_closed():
            return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            wake.set()
        else:
            loop.call_soon_threadsafe(wake.set)

    def stop(self) -> None:
        """Hard-stop the pump (drain is the graceful path)."""
        with self._lock:
            self._stopped = True
        self.poke()

    # -- the event loop side -------------------------------------------- #

    async def run(self) -> dict:
        """Run arrivals + pump until drained (or stopped); returns stats.

        The coroutine finishes when the core has drained — every
        admitted job reached a terminal state and admission is closed —
        so ``await daemon.run()`` *is* graceful shutdown.  On the way
        out, drained or stopped, it shuts down the core's executor.
        """
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        arrival_task = (
            asyncio.create_task(self._play_arrivals(), name="service-arrivals")
            if self.arrivals is not None
            else None
        )
        try:
            await self._pump(arrival_task)
        finally:
            if arrival_task is not None and not arrival_task.done():
                arrival_task.cancel()
                await asyncio.gather(arrival_task, return_exceptions=True)
            self.core.close()
        return self.core.stats()

    async def _play_arrivals(self) -> None:
        """Open-loop submission driver: sleep to each instant, submit."""
        from repro.service.state import RejectedSubmission

        assert self.arrivals is not None
        for submit_t, job in self.arrivals:
            await self.clock.sleep_until(submit_t)
            with self._lock:
                if self._stopped:
                    return
            try:
                self.core.submit(job)
            except RejectedSubmission:
                pass  # shed: counted and published by the core
            self.poke()

    async def _pump(self, arrival_task: "Optional[asyncio.Task]") -> None:
        """Advance the core whenever time reaches something actionable.

        ``advance_to`` blocks this loop while a job plans (the core's
        lock stays free for HTTP threads).  A plan claimed on another
        thread — a cancel redispatching — keeps ``drained`` false until
        it commits; that thread pokes the pump afterwards.
        """
        assert self._wake is not None
        while True:
            with self._lock:
                if self._stopped:
                    return
            now = self.clock.now()
            self.core.advance_to(now)
            if self.core.drained:
                return
            arrivals_done = arrival_task is None or arrival_task.done()
            if (self.drain_after is not None and arrivals_done
                    and now >= self.drain_after and not self.core.draining):
                self.core.drain()
                continue
            deadline = self.core.next_deadline()
            if (deadline is None and self.drain_after is not None
                    and arrivals_done and not self.core.draining):
                deadline = self.drain_after
            self._wake.clear()
            waiters = [
                asyncio.ensure_future(self._wake.wait()),
            ]
            if deadline is not None:
                waiters.append(
                    asyncio.ensure_future(self.clock.sleep_until(deadline))
                )
            try:
                await asyncio.wait(
                    waiters, return_when=asyncio.FIRST_COMPLETED
                )
            finally:
                for waiter in waiters:
                    if not waiter.done():
                        waiter.cancel()
                await asyncio.gather(*waiters, return_exceptions=True)


async def serve_until_drained(
    daemon: ServiceDaemon,
) -> dict:
    """Convenience wrapper: run the daemon to completion, return stats."""
    return await daemon.run()
