"""The campaign server — asyncio TCP front-end over store and workers.

One :class:`CampaignServer` owns the three moving parts: a
:class:`~repro.service.store.RunStore` (durable state), a local pool
of ``workers`` :class:`~repro.service.fleet.FleetWorker` threads
(execution — the same leased routine a ``repro-oa worker`` process
runs), and an asyncio TCP listener speaking the NDJSON protocol of
:mod:`repro.service.protocol`.  Connections are cheap: each request
line is answered with exactly one response line, and a client may hold
the connection open for many requests.

Two hosting modes:

* :func:`CampaignServer.serve_forever` — the CLI's blocking mode, with
  SIGINT/SIGTERM triggering a graceful drain (in-flight jobs finish,
  queued jobs persist for the next start);
* :func:`serve_in_thread` — an in-process server on a background
  thread, used by the tests, the example, and the throughput benchmark.
  Its handle exposes ``stop()`` (graceful) and ``kill()`` (abandon
  in-flight work — the crash-injection path).

The pool workers claim under owner ids the server mints, and a submit
wakes them at once (:meth:`CampaignServer.kick`), so a closed-loop
client never waits out an idle poll.  The server is also the
**reaper**: a periodic task (``reap_interval``) calls
:meth:`CampaignServer.reap_once`, which reclaims runs whose lease a
dead worker stopped renewing — its own pool's after a crash, or a
``repro-oa worker``'s.  That is the only recovery path for leased
runs, so a crashed server's jobs resume once their leases lapse
(within ``lease_seconds`` + ``reap_interval`` of the crash).  The
``health`` reply exposes the fleet state (live workers, leased jobs,
reap counters) for probes and dashboards.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Callable

from repro import obs
from repro._version import __version__
from repro.exceptions import ServiceError
from repro.faults.chaos import ChaosConfig
from repro.obs.context import mint_trace
from repro.service import protocol
from repro.service.fleet import (
    FleetWorker,
    WorkerConfig,
    WorkerKilled,
    publish_gauges,
)
from repro.service.store import RunStore
from repro.service.workers import job_kinds, validate_job

__all__ = ["CampaignServer", "ServerHandle", "serve_in_thread"]

_log = obs.get_logger(__name__)


class CampaignServer:
    """TCP campaign service over a run store (see module docstring).

    ``db_path`` is anything the store accepts — a SQLite path, a
    ``postgres://`` DSN, or ``memory://``
    (:func:`repro.service.backends.backend_from_url`); the name is
    historical.

    ``workers`` is the size of the local pool; ``0`` disables it — the
    fleet-only topology, where the server just serves and reaps while
    ``repro-oa worker`` processes execute.  ``max_attempts`` is the
    default per-run execution budget (a submit may override it), and
    ``worker_config`` tunes every pool worker (lease, deadline,
    backoff).  ``chaos`` arms the pool workers with seeded fault
    injection.

    ``clock`` supplies the store's and workers' timestamps and the
    health report's uptime; injectable (default :func:`time.time`) so
    tests can pin wall-clock-derived state instead of racing real time.
    """

    def __init__(
        self,
        db_path: str,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_attempts: int = 3,
        worker_config: WorkerConfig | None = None,
        chaos: "ChaosConfig | None" = None,
        clock: Callable[[], float] = time.time,
        reap_interval: float | None = 1.0,
    ) -> None:
        if workers < 0:
            raise ServiceError(
                f"workers must be >= 0, got {workers!r}", code="bad-request"
            )
        self.db_path = db_path
        self.host = host
        self._requested_port = port
        self.workers = workers
        self.max_attempts = max_attempts
        self.worker_config = worker_config or WorkerConfig()
        self.chaos = chaos
        self._clock = clock
        #: Reaper period in seconds; ``None`` disables the periodic
        #: task (``reap_once`` stays callable — the test hook).
        self.reap_interval = reap_interval
        self.store: RunStore | None = None
        #: The live pool workers (a slot's worker is replaced when
        #: chaos kills it).
        self.pool: list[FleetWorker] = []
        self._pool_threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        #: One wake event per pool slot, so a slot consuming its kick
        #: never swallows another slot's.
        self._wakes: list[threading.Event] = []
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._reaper: asyncio.Task | None = None
        #: Lifetime reaper counters, exposed in the health reply.
        self.lease_stats: dict[str, int] = {"expired": 0, "reassigned": 0}
        self._started_at = 0.0
        self._port: int | None = None

    @property
    def port(self) -> int:
        """The bound port (valid once started)."""
        if self._port is None:
            raise ServiceError("server is not started", code="internal")
        return self._port

    async def start(self) -> int:
        """Open the store, recover, start the pool and listener.

        Returns the bound port (useful with ``port=0``).
        """
        if self._server is not None:
            raise ServiceError("server already started", code="internal")
        self.store = RunStore(self.db_path, clock=self._clock)
        recovered = self.store.recover_interrupted()
        publish_gauges(self.store)
        self._stopping.clear()
        self._wakes = [threading.Event() for _ in range(self.workers)]
        self._pool_threads = [
            threading.Thread(
                target=self._work,
                args=(wake,),
                name=f"repro-worker-{slot}",
                daemon=True,
            )
            for slot, wake in enumerate(self._wakes)
        ]
        for thread in self._pool_threads:
            thread.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self.reap_interval is not None:
            self._reaper = asyncio.create_task(self._reap_loop())
        self._started_at = self._clock()
        obs.log_event(
            _log, "service.started",
            host=self.host, port=self._port, db=self.db_path,
            recovered=recovered, workers=self.workers,
            backend=self.store.backend.name,
        )
        return self._port

    def kick(self) -> None:
        """Wake idle pool workers (call after a submit or a reap)."""
        for wake in self._wakes:
            wake.set()

    def _work(self, wake: threading.Event) -> None:
        """One pool slot: a leased worker, replaced if chaos kills it.

        Its idle sleep ends early on :meth:`kick`.  A kick landing
        between the wait and the clear is not lost: this slot is awake
        and about to claim anyway.
        """
        assert self.store is not None

        def idle(delay: float) -> None:
            wake.wait(delay)
            wake.clear()

        while not self._stopping.is_set():
            worker = FleetWorker(
                self.store,
                self.worker_config,
                clock=self._clock,
                sleep=idle,
                chaos=self.chaos,
            )
            self.pool.append(worker)
            try:
                worker.run_forever(self._stopping)
            except WorkerKilled:
                continue  # its run stays leased until the reaper
            finally:
                self.pool.remove(worker)

    def _stop_pool(self, graceful: bool) -> None:
        """Stop the pool threads; graceful lets in-flight jobs finish."""
        self._stopping.set()
        if not graceful:
            for worker in list(self.pool):
                worker.abandon()
        self.kick()
        for thread in self._pool_threads:
            thread.join()
        self._pool_threads = []

    async def stop(self, *, graceful: bool = True) -> None:
        """Close the listener and stop the pool; graceful finishes jobs.

        The non-graceful path abandons in-flight jobs: their children
        are killed and their rows stay ``running`` under the pool's
        leases — exactly what a crash leaves behind.
        """
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Open client connections park in readline(); closing their
        # transports feeds them EOF so the handlers exit normally
        # (cancelling them instead trips asyncio's stream callbacks).
        for writer in list(self._writers):
            writer.close()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        self._writers.clear()
        await asyncio.to_thread(self._stop_pool, graceful)
        if self.store is not None:
            publish_gauges(self.store)
            self.store.close()
            self.store = None
        self._port = None
        obs.log_event(_log, "service.stopped", graceful=graceful)

    async def serve_forever(self) -> None:
        """Block until SIGINT/SIGTERM, then drain gracefully (CLI mode)."""
        import signal

        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await stop_event.wait()
        await self.stop(graceful=True)

    # -- lease reaping ------------------------------------------------------

    async def _reap_loop(self) -> None:
        """Expire stale leases every ``reap_interval`` seconds."""
        assert self.reap_interval is not None
        while True:
            await asyncio.sleep(self.reap_interval)
            try:
                self.reap_once()
            except Exception:  # pragma: no cover - defensive
                obs.log_event(_log, "service.reap_error")

    def reap_once(self, now: float | None = None) -> int:
        """One reaper pass: reclaim runs whose lease has expired.

        An expired lease means its worker stopped heartbeating — it
        was SIGKILLed, partitioned, or its host crashed.  The run goes
        back to ``queued`` with ``trace_id`` and attempt count intact,
        so the next claimant (a fleet worker, or this server's own
        pool) continues the same traced story — unless the lost
        attempt was its last, in which case it lands ``failed``.
        Returns the number of expired leases.  Callable directly with
        a pinned ``now`` — the deterministic test hook.
        """
        assert self.store is not None
        now = self._clock() if now is None else now
        with obs.span("service.lease", reap=True):
            expired = self.store.expire_leases(now)
            for record in expired:
                self.lease_stats["expired"] += 1
                obs.inc("service.lease_expired", kind=record.kind)
                if record.state == "failed":
                    obs.inc("service.jobs_failed", kind=record.kind)
                    obs.log_event(
                        _log, "service.lease_failed",
                        run_id=record.run_id, kind=record.kind,
                        lost_owner=record.owner_id, attempt=record.attempts,
                    )
                    continue
                self.lease_stats["reassigned"] += 1
                obs.inc("service.lease_reassignments", kind=record.kind)
                obs.log_event(
                    _log, "service.lease_reassigned",
                    run_id=record.run_id, kind=record.kind,
                    lost_owner=record.owner_id, attempt=record.attempts,
                )
            live = self.store.live_leases(now)
            obs.set_gauge("service.leases_live", len(live))
            if live:
                obs.set_gauge(
                    "service.lease_age_seconds",
                    max(view.age(now) for view in live),
                )
            publish_gauges(self.store)
        if expired:
            self.kick()
        return len(expired)

    def fleet_health(self, now: float | None = None) -> dict[str, Any]:
        """The worker-fleet section of the health reply."""
        assert self.store is not None
        now = self._clock() if now is None else now
        live = self.store.live_leases(now)
        return {
            "backend": self.store.backend.name,
            "live_workers": len({view.owner_id for view in live}),
            "leased_jobs": len(live),
            "oldest_heartbeat_age": (
                max(view.age(now) for view in live) if live else 0.0
            ),
            "leases_expired": self.lease_stats["expired"],
            "leases_reassigned": self.lease_stats["reassigned"],
        }

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        self._writers.add(writer)
        obs.inc("service.connections")
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = self._respond(line.decode("utf-8", "replace"))
                writer.write(
                    (protocol.encode_response(response) + "\n").encode()
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    def _respond(self, line: str) -> protocol.Response:
        """Decode, dispatch, and wrap one request line."""
        op = "?"
        try:
            request = protocol.decode_request(line)
            op = request.op
            payload = self._dispatch(request)
            obs.inc("service.requests", op=op, outcome="ok")
            return protocol.ok_response(op, payload)
        except ServiceError as exc:
            obs.inc("service.requests", op=op, outcome=exc.code)
            return protocol.error_response(op, exc)
        except Exception as exc:  # pragma: no cover - defensive
            obs.inc("service.requests", op=op, outcome="internal")
            return protocol.error_response(
                op, ServiceError(f"internal error: {exc!r}", code="internal")
            )

    # -- operations --------------------------------------------------------

    def _dispatch(self, request: protocol.Request) -> dict[str, Any]:
        assert self.store is not None
        handler = getattr(self, f"_op_{request.op}")
        return handler(request.payload)

    def _require_run_id(self, payload: dict[str, Any]) -> str:
        run_id = payload.get("run_id")
        if not isinstance(run_id, str) or not run_id:
            raise ServiceError(
                "payload must carry a non-empty 'run_id' string",
                code="bad-request",
            )
        return run_id

    def _op_submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ServiceError(
                "submit payload must carry a 'kind' string",
                code="bad-request",
            )
        params = payload.get("params", {})
        if not isinstance(params, dict):
            raise ServiceError(
                f"submit params must be an object, "
                f"got {type(params).__name__}",
                code="bad-params",
            )
        clean = validate_job(kind, params)
        max_attempts = payload.get("max_attempts", self.max_attempts)
        if not isinstance(max_attempts, int) or max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be a positive integer, "
                f"got {max_attempts!r}",
                code="bad-request",
            )
        trace_id = payload.get("trace_id")
        if trace_id is None:
            # Untraced client (or older protocol peer): mint here so
            # every stored run is joinable by trace_id regardless.
            trace_id = mint_trace().trace_id
        elif not isinstance(trace_id, str) or not trace_id:
            raise ServiceError(
                f"submit trace_id must be a non-empty string, "
                f"got {trace_id!r}",
                code="bad-request",
            )
        run_id = self.store.submit(
            kind, clean, max_attempts=max_attempts, trace_id=trace_id
        )
        obs.inc("service.submissions", kind=kind)
        self.kick()
        return {
            "run_id": run_id,
            "state": "queued",
            "kind": kind,
            "trace_id": trace_id,
        }

    def _op_status(self, payload: dict[str, Any]) -> dict[str, Any]:
        record = self.store.get(self._require_run_id(payload))
        return record.summary()

    def _op_result(self, payload: dict[str, Any]) -> dict[str, Any]:
        record = self.store.get(self._require_run_id(payload))
        if record.state == "failed":
            raise ServiceError(
                f"run {record.run_id} failed after {record.attempts} "
                f"attempt(s): {record.error}",
                code="job-failed",
            )
        if record.state != "done" or record.result is None:
            raise ServiceError(
                f"run {record.run_id} is {record.state}; "
                f"result is only available once done",
                code="not-finished",
            )
        return {
            "run_id": record.run_id,
            "kind": record.kind,
            "result": json.loads(record.result),
        }

    def _op_list(self, payload: dict[str, Any]) -> dict[str, Any]:
        state = payload.get("state")
        if state is not None and not isinstance(state, str):
            raise ServiceError(
                f"list state filter must be a string, got {state!r}",
                code="bad-request",
            )
        limit = payload.get("limit", 100)
        if not isinstance(limit, int) or limit < 1:
            raise ServiceError(
                f"limit must be a positive integer, got {limit!r}",
                code="bad-request",
            )
        records = self.store.list_runs(state, limit=limit)
        return {"runs": [record.summary() for record in records]}

    def _op_cancel(self, payload: dict[str, Any]) -> dict[str, Any]:
        record = self.store.cancel(self._require_run_id(payload))
        obs.inc("service.cancellations")
        return record.summary()

    def _op_health(self, payload: dict[str, Any]) -> dict[str, Any]:
        counts = self.store.counts_by_state()
        return {
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_seconds": self._clock() - self._started_at,
            "workers": self.workers,
            "queue_depth": counts["queued"],
            "jobs": counts,
            "kinds": [kind.name for kind in job_kinds()],
            "fleet": self.fleet_health(),
        }


class ServerHandle:
    """A server running on a background thread (tests/examples/benches)."""

    def __init__(self, thread: threading.Thread, loop, server, port: int):
        self._thread = thread
        self._loop = loop
        #: The running :class:`CampaignServer` (its ``pool`` lists the
        #: live workers).
        self.server = server
        self.port = port

    def _shutdown(self, graceful: bool) -> None:
        if not self._thread.is_alive():
            return

        async def _stop() -> None:
            await self.server.stop(graceful=graceful)

        future = asyncio.run_coroutine_threadsafe(_stop(), self._loop)
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)

    def stop(self) -> None:
        """Graceful shutdown: in-flight jobs finish and are recorded."""
        self._shutdown(graceful=True)

    def kill(self) -> None:
        """Crash-style shutdown: abandon in-flight work (rows stay running)."""
        self._shutdown(graceful=False)


def serve_in_thread(
    db_path: str,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    max_attempts: int = 3,
    worker_config: WorkerConfig | None = None,
    chaos: ChaosConfig | None = None,
    clock: Callable[[], float] = time.time,
    reap_interval: float | None = 1.0,
) -> ServerHandle:
    """Start a :class:`CampaignServer` on a daemon thread; returns its handle.

    The call blocks until the listener is bound, so ``handle.port`` is
    immediately usable by a client.  The keyword arguments are
    :class:`CampaignServer`'s; ``chaos`` arms the pool workers with
    deterministic fault injection (the chaos-test path).
    """
    import concurrent.futures

    started: concurrent.futures.Future = concurrent.futures.Future()
    loop = asyncio.new_event_loop()
    server = CampaignServer(
        db_path, host=host, port=port, workers=workers,
        max_attempts=max_attempts, worker_config=worker_config,
        chaos=chaos, clock=clock, reap_interval=reap_interval,
    )

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            try:
                bound = await server.start()
                started.set_result(bound)
            except BaseException as exc:  # pragma: no cover - startup failure
                started.set_exception(exc)

        loop.run_until_complete(_start())
        loop.run_forever()
        # Drain cancelled callbacks after stop() so the loop closes clean.
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    thread = threading.Thread(target=_run, name="repro-service", daemon=True)
    thread.start()
    bound_port = started.result(timeout=30)
    return ServerHandle(thread, loop, server, bound_port)
