"""The one job-execution routine — leased workers, in the server or apart.

Every job the service runs goes through a :class:`FleetWorker`.  The
server's local pool is ``workers`` of them on threads of the server
process; ``repro-oa worker`` runs one in its own process, sharing
nothing with the server but the store.  Both hosts execute the same
routine:

**claim with lease → run in a child process under a deadline,
heartbeating → owner-checked completion, or the one failure/retry
routine.**

* every claim stamps the worker's ``owner_id`` and a lease deadline
  ``lease_seconds`` ahead (:meth:`RunStore.claim_next`);
* the job runs in the worker's own forked child process, which the
  worker drives over one duplex pipe — send ``(fn, args)``, receive
  ``(ok, value)`` — while the worker thread waits on it and renews the
  lease every ``heartbeat_interval`` seconds;
* ``job_timeout`` is the per-job deadline (``None`` = unlimited).
  When it passes the heartbeats stop, the child is killed — not
  abandoned — and the attempt goes through :meth:`FleetWorker.
  _record_failure`: retry with full-jitter backoff, or ``failed`` on
  the last attempt.  A fresh child takes the next job;
* a child that dies mid-job (``crash``) is noticed at once: the wait
  watches the child's process sentinel beside the pipe, so no deadline
  is needed to detect it, and it goes through the same failure
  routine;
* if the *worker* dies — SIGKILL, OOM, power loss, a crashed server —
  the heartbeats stop, the lease expires, and the server's reaper
  (:meth:`~repro.service.server.CampaignServer.reap_once`) requeues
  the run for another worker, ``trace_id`` and attempt count intact,
  or fails it when the lost attempt was its last;
* every completion is an *owner-checked* compare-and-set: a worker
  that lost its lease (e.g. it was partitioned from the store and the
  run was reassigned) gets ``lease-lost`` instead of silently
  overwriting the other worker's run — that edge is what makes
  reassignment exactly-once.

Determinism: the worker reads time only through the injected
``clock`` and sleeps only through the injected ``sleep``, so lease
expiry, reassignment, deadlines and the whole multi-worker kill
matrix replay on a fake clock.  A :class:`~repro.faults.chaos.
ChaosConfig` arms the worker with seeded failures
(:class:`WorkerKilled` simulates the SIGKILL without needing a real
process per decision).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.util
import os
import random
import signal
import threading
import time
import uuid
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable

from repro import obs
from repro.exceptions import ReproError, ServiceError
from repro.faults.chaos import POOL_ACTIONS, ChaosConfig, ChaosMonkey
from repro.obs.tracing import WORKER_PID
from repro.service.store import RUN_STATES, RunRecord, RunStore
from repro.service.workers import execute_in_child

__all__ = [
    "FleetWorker",
    "WorkerConfig",
    "WorkerKilled",
    "full_jitter_backoff",
    "mint_owner_id",
    "publish_gauges",
]

_log = obs.get_logger(__name__)

#: The recorded error of each injected in-pool failure.
_INJECTED_ERRORS = {
    "crash": "chaos: injected worker crash",
    "timeout": "chaos: injected forced timeout",
    "error": "chaos: injected transient executor error",
}

#: Job children are forked, whatever the interpreter's default start
#: method (``forkserver`` on Linux from Python 3.14): a forked child
#: inherits the already-imported job code, and its parent is the worker
#: itself, which is what the child's parent-watch (:func:`_child_init`)
#: relies on.
_MP_CONTEXT = multiprocessing.get_context("fork")

#: Held from a child's pipe creation until the worker has closed the
#: child's ends: a sibling worker forking inside that window would
#: inherit them and keep them open, so the child's death would raise
#: neither EOF on the pipe nor its process sentinel.
_FORK_LOCK = threading.Lock()


def full_jitter_backoff(
    attempt: int,
    *,
    base: float,
    factor: float,
    cap: float,
    rng: random.Random | None = None,
) -> float:
    """Full-jitter (AWS style) delay after the ``attempt``-th failure.

    Uniform over ``[0, min(base * factor**(attempt-1), cap)]`` — many
    callers failing together spread their retries instead of
    thundering back in lock-step.  Without an ``rng`` the ceiling
    itself is returned (the deterministic worst case).  Shared by the
    worker's retry scheduling and idle polling and by the client's
    connect retries.
    """
    ceiling = min(base * factor ** max(0, attempt - 1), cap)
    if rng is None:
        return ceiling
    return rng.uniform(0.0, ceiling)


def _child_init(worker_pid: int) -> None:
    """Job-child initializer: ignore Ctrl-C, exit with the worker.

    The terminal's SIGINT reaches the whole process group; the worker
    drains gracefully on it, so the child must not die mid-job.  A
    SIGKILLed worker cannot reap its child either, so the child
    watches for being re-parented and exits instead of finishing an
    orphaned job whose lease is already lapsing.  ``worker_pid`` comes
    from the worker rather than from ``os.getppid()`` here: a worker
    killed before this runs has already re-parented the child, which
    must then exit at once.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def watch() -> None:
        tick = threading.Event()
        while os.getppid() == worker_pid:
            tick.wait(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _child_main(
    conn: Connection, parent_end: Connection, worker_pid: int
) -> None:
    """The job child: run ``(fn, args)`` messages until told to stop.

    Each message is answered with ``(True, value)`` or ``(False,
    exc)``; ``None`` or EOF ends the loop.  The fork left the worker's
    end of the pipe open here too, and it is closed first.  A reply
    that cannot be pickled is replaced by a ``job-crashed``
    :class:`ServiceError` carrying its ``repr``, so the worker always
    gets an answer and this child stays usable.
    """
    parent_end.close()
    _child_init(worker_pid)
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        fn, args = job
        try:
            reply = (True, fn(*args))
        except Exception as exc:
            reply = (False, exc)
        try:
            conn.send(reply)
        except OSError:
            return  # the worker is gone
        except Exception as exc:
            conn.send((False, ServiceError(
                f"job reply {reply[1]!r} could not be pickled: {exc}",
                code="job-crashed",
            )))


def _stop_child(
    process: BaseProcess, conn: Connection, kill: bool
) -> int | None:
    """Stop a job child and reap it; returns its exit code.

    ``kill`` SIGKILLs it; otherwise it is asked to exit once its
    current job (if any) is answered.  EOF alone is no stop signal: a
    sibling worker's child forked later holds this end of the pipe.
    """
    try:
        if kill:
            _sigkill(process.pid)
        else:
            conn.send(None)
    except OSError:
        pass  # the child is already gone
    conn.close()
    process.join()
    return process.exitcode


def _attempt_error(exc: BaseException) -> str:
    """The recorded error of a job attempt that raised ``exc``."""
    if isinstance(exc, ReproError):
        return f"{type(exc).__name__}: {exc}"
    return f"worker crash: {exc!r}"  # defensive: job kind or store bug


def _sigkill(pid: int | None) -> None:
    """SIGKILL ``pid`` if it is still there."""
    if pid is None:
        return
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class WorkerKilled(Exception):
    """The simulated SIGKILL: the worker stops *without* cleanup.

    Raised out of :meth:`FleetWorker.run_once` when chaos kills the
    worker, or when its host abandons it (:meth:`FleetWorker.abandon`,
    the server's crash path) — deliberately **not** a
    :class:`~repro.exceptions.ReproError`, so no handler on the
    execution path can turn it into a recorded failure.  The claimed
    run stays ``running`` under the dead worker's lease, exactly as a
    real ``kill -9`` would leave it, and only the reaper can recover it.
    """


@dataclass(frozen=True)
class WorkerConfig:
    """Tunables of one worker, in the server's pool or a fleet process."""

    #: Lease duration stamped on every claim, in seconds.  A worker
    #: must die for this long before the reaper reassigns its job.
    lease_seconds: float = 15.0
    #: Heartbeat period; must leave room for several renewals per
    #: lease (``< lease_seconds / 2``) so one delayed beat does not
    #: forfeit the job.
    heartbeat_interval: float = 5.0
    #: Per-job deadline in seconds; ``None`` means unlimited.
    job_timeout: float | None = None
    #: Idle poll backoff: first delay and cap (growth is
    #: ``backoff_factor``).
    poll_base: float = 0.05
    poll_cap: float = 1.0
    #: Retry backoff after a failed execution: first delay, growth
    #: factor, and cap.
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0
    #: Seed for the poll and retry jitter stream, mixed with the
    #: worker's owner id so workers sharing a config never back off in
    #: lock-step; ``None`` seeds from the OS.
    seed: int | None = None
    #: Stop after this many executed jobs; ``None`` runs until stopped.
    max_jobs: int | None = None

    def __post_init__(self) -> None:
        if self.lease_seconds <= 0:
            raise ServiceError(
                f"lease_seconds must be positive, got "
                f"{self.lease_seconds!r}",
                code="bad-request",
            )
        if not 0 < self.heartbeat_interval < self.lease_seconds / 2:
            raise ServiceError(
                f"heartbeat_interval must be in (0, lease_seconds/2) so "
                f"a lease survives a missed beat; got "
                f"{self.heartbeat_interval!r} against lease "
                f"{self.lease_seconds!r}",
                code="bad-request",
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ServiceError(
                f"job_timeout must be positive, got {self.job_timeout!r}",
                code="bad-request",
            )

    def backoff(self, attempt: int, rng: random.Random | None = None) -> float:
        """Retry delay after the ``attempt``-th failed execution."""
        return full_jitter_backoff(
            attempt,
            base=self.backoff_base,
            factor=self.backoff_factor,
            cap=self.backoff_cap,
            rng=rng,
        )


def publish_gauges(store: RunStore) -> None:
    """Export queue depth, per-state counts and in-flight jobs.

    A no-op unless observability is on.  ``service.active_jobs`` counts
    the jobs executing in this process — the server's pool, or the one
    job of a ``repro-oa worker``.
    """
    if not obs.enabled():
        return
    counts = store.counts_by_state()
    obs.set_gauge("service.queue_depth", counts["queued"])
    for state in RUN_STATES:
        obs.set_gauge("service.jobs", counts[state], state=state)
    obs.set_gauge("service.active_jobs", FleetWorker.in_flight())


def mint_owner_id() -> str:
    """A fleet-unique worker identity: ``worker-<pid>-<random hex>``.

    The pid makes the owner greppable on its host; the random suffix
    keeps identities unique across hosts, across restarts reusing a
    pid, and across the pool threads of one server.
    """
    return f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"


class FleetWorker:
    """One leased-execution worker (see module docstring).

    ``clock`` and ``sleep`` default to the real ones and are
    injectable for deterministic tests (the server passes a ``sleep``
    that a submit wakes early); ``chaos`` arms the seeded failure modes.
    """

    #: Jobs executing in this process, across all its workers.
    _in_flight = 0
    _in_flight_lock = threading.Lock()

    @classmethod
    def in_flight(cls) -> int:
        """Jobs executing right now in this process."""
        return cls._in_flight

    @classmethod
    def _track(cls, delta: int) -> None:
        with cls._in_flight_lock:
            cls._in_flight += delta

    def __init__(
        self,
        store: RunStore,
        config: WorkerConfig | None = None,
        *,
        owner_id: str | None = None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
        chaos: ChaosConfig | None = None,
    ) -> None:
        self.store = store
        self.config = config or WorkerConfig()
        self.owner_id = owner_id or mint_owner_id()
        self._clock = clock
        self._sleep = sleep
        self.chaos = (
            ChaosMonkey(chaos)
            if chaos is not None and chaos.total_rate > 0
            else None
        )
        self._rng = random.Random(
            None
            if self.config.seed is None
            else f"{self.config.seed}:{self.owner_id}"
        )
        #: The job child, the worker's end of its pipe, and the finalizer
        #: that stops it if this worker is collected or the interpreter
        #: exits unclosed; ``None`` until the first job and after a kill.
        self._child: (
            tuple[BaseProcess, Connection, multiprocessing.util.Finalize]
            | None
        ) = None
        #: When chaos partitions this worker from the store, its
        #: heartbeats are suppressed for the rest of the current job.
        self._partitioned = False
        self._abandoned = False
        #: Lifetime outcome counters, keyed by :meth:`run_once` return.
        self.stats: dict[str, int] = {
            "claims": 0,
            "done": 0,
            "retried": 0,
            "failed": 0,
            "lease-lost": 0,
            "heartbeats": 0,
        }

    # -- lease plumbing ----------------------------------------------------

    def heartbeat_now(self, run_id: str) -> bool:
        """Renew the lease on ``run_id`` once; ``False`` when lost.

        A partitioned worker (chaos) cannot reach the store: the
        renewal is silently dropped, which is exactly what a network
        partition does to a real heartbeat.
        """
        if self._partitioned:
            return True  # the worker *believes* it still owns the run
        renewed = self.store.heartbeat(
            run_id,
            self.owner_id,
            lease_seconds=self.config.lease_seconds,
            now=self._clock(),
        )
        if renewed:
            self.stats["heartbeats"] += 1
            obs.inc("service.fleet_heartbeats", owner=self.owner_id)
        return renewed

    # -- the child process -------------------------------------------------

    @property
    def child_pid(self) -> int | None:
        """OS pid of the child process running this worker's jobs;
        ``None`` until the first job and after the child is killed."""
        child = self._child
        return None if child is None else child[0].pid

    def _submit(self, fn: Callable[..., Any], *args: Any) -> None:
        """Send ``fn(*args)`` to the job child, started on demand.

        A child that died between jobs is reaped and replaced first.
        Nothing here waits on the child: a child that hangs while
        starting is caught by the job's deadline like any other hang,
        and one that died before the send is seen by :meth:`_await`.
        """
        if self._child is not None and not self._child[0].is_alive():
            self._kill_child()
        if self._child is None:
            with _FORK_LOCK:
                conn, child_end = _MP_CONTEXT.Pipe()
                process = _MP_CONTEXT.Process(
                    target=_child_main, args=(child_end, conn, os.getpid())
                )
                try:
                    process.start()
                except BaseException:
                    conn.close()
                    raise
                finally:
                    child_end.close()
            stop = multiprocessing.util.Finalize(
                self, _stop_child, args=(process, conn, False), exitpriority=0
            )
            self._child = (process, conn, stop)
        try:
            self._child[1].send((fn, args))
        except OSError:
            pass  # the child is dead: the wait sees its sentinel

    def _kill_child(self) -> int | None:
        """SIGKILL and reap the job child; the next job gets a fresh one.

        Returns the child's exit code, ``None`` when there was none.
        """
        child, self._child = self._child, None
        if child is None:
            return None
        process, conn, stop = child
        stop.cancel()
        return _stop_child(process, conn, kill=True)

    def close(self) -> None:
        """Stop the job child and reap it (idempotent)."""
        child, self._child = self._child, None
        if child is not None:
            child[2]()  # its finalizer: the stop message, then a join

    def abandon(self) -> None:
        """Crash-style stop, callable from another thread.

        Kills the job child and makes the worker raise
        :class:`WorkerKilled` instead of recording the attempt: the
        run stays ``running`` under this worker's lease until the
        reaper recovers it — what a crashed host leaves behind.
        """
        self._abandoned = True
        _sigkill(self.child_pid)

    # -- execution ---------------------------------------------------------

    def run_once(self, now: float | None = None) -> str | None:
        """Claim and execute at most one run.

        Returns the outcome — ``"done"``, ``"retried"``, ``"failed"``,
        or ``"lease-lost"`` — or ``None`` when nothing was claimable.
        Raises :class:`WorkerKilled` when chaos kills (or the host
        abandons) this worker; the claimed run is left ``running``
        under its lease.
        """
        now = self._clock() if now is None else now
        record = self.store.claim_next(
            now,
            owner_id=self.owner_id,
            lease_seconds=self.config.lease_seconds,
        )
        if record is None:
            return None
        self.stats["claims"] += 1
        obs.inc("service.fleet_claims", kind=record.kind)
        obs.observe(
            "service.queue_wait_seconds",
            max(0.0, now - record.created_at),
            kind=record.kind,
        )
        self._track(+1)
        publish_gauges(self.store)
        try:
            outcome = self._attempt(record)
        finally:
            self._track(-1)
            publish_gauges(self.store)
        self.stats[outcome] += 1
        return outcome

    def _attempt(self, record: RunRecord) -> str:
        """One claimed attempt: the chaos decision, then execution."""
        action = None
        if self.chaos is not None:
            action = self.chaos.decide(record.run_id, record.attempts)
            if action is not None:
                self.chaos.record(action, record.run_id, record.kind)
        if action == "kill-heartbeat":
            # Die *after* a renewal: the lease looks freshest possible
            # when the worker vanishes, so this is the worst case for
            # reassignment latency.
            self.heartbeat_now(record.run_id)
        if action in ("kill", "kill-heartbeat") or self._abandoned:
            raise WorkerKilled(
                f"{self.owner_id} killed ({action or 'abandoned'}) "
                f"right after claiming {record.run_id}"
            )
        self._partitioned = action == "partition"
        return self._execute(
            record, action if action in POOL_ACTIONS else None
        )

    def _execute(self, record: RunRecord, injected: str | None) -> str:
        """Run one claimed attempt and record its outcome."""
        with obs.span(
            "service.job",
            run_id=record.run_id,
            kind=record.kind,
            attempt=record.attempts,
            trace_id=record.trace_id,
            owner=self.owner_id,
        ) as span_id:
            started = self._clock()
            if injected is None:
                result, error = self._run_in_child(record, span_id)
            else:
                # The injected failure replaces the execution: crash
                # and timeout take the child down like the real thing.
                if injected != "error":
                    self._kill_child()
                result, error = None, _INJECTED_ERRORS[injected]
            # A partitioned worker reconnects exactly here — at the
            # completion write — which the owner check must refuse if
            # the run was reassigned meanwhile.
            self._partitioned = False
            try:
                if result is not None:
                    self.store.mark_done(
                        record.run_id, result, owner_id=self.owner_id
                    )
                    obs.inc("service.jobs_done", kind=record.kind)
                    obs.observe(
                        "service.job_seconds",
                        self._clock() - started,
                        kind=record.kind,
                        outcome="done",
                    )
                    obs.log_event(
                        _log, "service.job_done",
                        run_id=record.run_id, kind=record.kind,
                        owner=self.owner_id, attempt=record.attempts,
                    )
                    return "done"
                if error is not None:
                    return self._record_failure(record, error)
            except ServiceError as exc:
                # ``lease-lost``: still running, but under a new owner.
                # ``bad-transition``: the new owner already finished it.
                if exc.code not in ("lease-lost", "bad-transition"):
                    raise
            # Either way this execution lost the race (at the write, or
            # earlier when a heartbeat was refused) and its result is
            # discarded.
            obs.inc("service.lease_lost", owner=self.owner_id)
            obs.log_event(
                _log, "service.lease_lost",
                run_id=record.run_id, owner=self.owner_id,
                attempt=record.attempts,
            )
            return "lease-lost"

    def _run_in_child(
        self, record: RunRecord, span_id: int | None
    ) -> tuple[str | None, str | None]:
        """Send the job down the child's pipe, await the reply, heartbeating.

        Returns ``(result, None)`` on success, ``(None, error)`` on a
        failed attempt — the job raised, the deadline passed, the child
        died (``worker crash``), or the store failed mid-wait — and
        ``(None, None)`` when a heartbeat found the lease lost.  A child
        whose reply went unread — timed out, crashed, lease lost, or
        left owing it by a store error — is killed and reaped, so no
        later job can read that reply as its own; the next job starts
        a fresh child.  When observability is on and the run carries a
        trace id, the child runs under that trace and its spans are
        grafted under ``span_id``.
        """
        trace = None
        dispatch_us = 0.0
        if obs.enabled() and record.trace_id:
            trace = {
                "trace_id": record.trace_id,
                "run_id": record.run_id,
                "parent_span_id": span_id,
            }
            dispatch_us = obs.tracer().now_us()
        error: str | None = None
        reply: bytes | None = None
        try:
            self._submit(execute_in_child, record.kind, record.params, trace)
            finished = self._await(record)
            if finished == "done":
                try:
                    reply = self._child[1].recv_bytes()
                except (EOFError, OSError):
                    finished = "crashed"  # the pipe broke with the child
                else:
                    ok, outcome = ForkingPickler.loads(reply)
                    if not ok:
                        finished, error = "failed", _attempt_error(outcome)
        except Exception as exc:
            # A store error mid-wait (the reply is still owed), or a
            # reply read off the pipe that would not unpickle.
            finished, error = "failed", _attempt_error(exc)
        if self._abandoned:
            raise WorkerKilled(
                f"{self.owner_id} abandoned mid-job on {record.run_id}"
            )
        if reply is None:  # dead, hung, or still owing its reply
            exitcode = self._kill_child()
        if finished == "crashed":
            error = (
                f"worker crash: child process died (exit code {exitcode})"
            )
        if finished == "timeout":
            error = (
                f"timeout: exceeded {self.config.job_timeout}s "
                f"wall-clock budget"
            )
        if finished != "done":
            return None, error
        if trace is not None:
            self._import_worker_spans(record, outcome, span_id, dispatch_us)
        return outcome["result"], None

    def _await(self, record: RunRecord) -> str:
        """Wait for the child's reply, renewing the lease until the deadline.

        Returns ``"done"`` once the pipe has something to read (the
        reply, or EOF from a dead child), ``"crashed"`` when the child
        exits first, ``"timeout"`` when ``job_timeout`` passes first,
        and ``"lost"`` when a renewal is refused.  The wait watches the
        child's process sentinel beside the pipe: a process forked
        between the pipe's creation and the child's start (one not
        serialized by ``_FORK_LOCK``) holds the child's end open, so EOF
        alone cannot be relied on to report a dead child.  Heartbeats
        happen only inside this wait, so they stop with it.
        """
        process, conn, _stop = self._child
        interval = self.config.heartbeat_interval
        now = self._clock()
        deadline = (
            None
            if self.config.job_timeout is None
            else now + self.config.job_timeout
        )
        beat_at = now + interval
        while True:
            wake_at = beat_at if deadline is None else min(beat_at, deadline)
            ready = wait(
                [conn, process.sentinel], timeout=max(0.0, wake_at - now)
            )
            if conn in ready:
                return "done"
            if ready:
                return "crashed"
            now = self._clock()
            if deadline is not None and now >= deadline:
                return "timeout"
            if now >= beat_at:
                if not self.heartbeat_now(record.run_id):
                    return "lost"
                beat_at = now + interval

    def _import_worker_spans(
        self,
        record: RunRecord,
        envelope: dict[str, Any],
        parent_id: int | None,
        dispatch_us: float,
    ) -> None:
        """Graft the child's span buffer onto this process's tracer.

        Child spans are timed against the child session's own epoch;
        offsetting by the dispatch instant (``dispatch_us``, read on
        this tracer's timeline just before the submit) lines them up
        under the ``service.job`` span that sent them.  Child span ids
        live in a different namespace, so they are kept as
        ``worker_span_id``/``worker_parent_id`` args and the imported
        spans all parent on the job span.
        """
        spans = envelope.get("spans") or []
        worker_pid = int(envelope.get("worker_pid", 0))
        tracer = obs.tracer()
        for event in spans:
            args = dict(event.get("args", {}))
            args["worker_span_id"] = args.pop("span_id", None)
            worker_parent = args.pop("parent_id", None)
            if worker_parent is not None:
                args["worker_parent_id"] = worker_parent
            args["trace_id"] = record.trace_id
            args["run_id"] = record.run_id
            tracer.add_complete_span(
                str(event.get("name", "?")),
                ts=dispatch_us + float(event.get("ts", 0.0)),
                dur=float(event.get("dur", 0.0)),
                pid=WORKER_PID,
                tid=worker_pid,
                parent_id=parent_id,
                **args,
            )
        if spans:
            obs.inc("service.worker_spans", len(spans), kind=record.kind)

    def _record_failure(self, record: RunRecord, error: str) -> str:
        """Route a failed execution to retry-with-backoff or terminal.

        The one failure/retry routine: job errors, deadlines, crashed
        children and injected chaos all land here, on every host.
        """
        if record.attempts >= record.max_attempts:
            self.store.mark_failed(
                record.run_id, error, owner_id=self.owner_id
            )
            obs.inc("service.jobs_failed", kind=record.kind)
            obs.log_event(
                _log, "service.job_failed",
                run_id=record.run_id, kind=record.kind,
                owner=self.owner_id, attempt=record.attempts, error=error,
            )
            return "failed"
        delay = self.config.backoff(record.attempts, self._rng)
        self.store.requeue_for_retry(
            record.run_id,
            error,
            not_before=self._clock() + delay,
            owner_id=self.owner_id,
        )
        obs.inc("service.jobs_retried", kind=record.kind)
        obs.log_event(
            _log, "service.job_retry",
            run_id=record.run_id, kind=record.kind,
            owner=self.owner_id, attempt=record.attempts,
            backoff_s=delay, error=error,
        )
        return "retried"

    # -- the loop ----------------------------------------------------------

    def run_forever(self, stop: threading.Event | None = None) -> dict[str, Any]:
        """Claim-and-execute until stopped (or ``max_jobs`` executed).

        Idle polls back off with seeded full jitter (reset on every
        successful claim), capped at the next backoff deadline in the
        store so a retry is claimed the moment it becomes eligible.
        Stopping is graceful: the in-flight job finishes and is
        recorded.  The job child is shut down on the way out.  Returns
        the final :attr:`stats`.
        """
        stop = stop if stop is not None else threading.Event()
        executed = 0
        idle_streak = 0
        obs.log_event(
            _log, "fleet.worker_started",
            owner=self.owner_id, lease_s=self.config.lease_seconds,
        )
        try:
            while not stop.is_set():
                # One clock read per pass: the same instant decides the
                # claim's eligibility and the idle sleep, so a deadline
                # landing between two reads cannot cost a poll period.
                now = self._clock()
                if self.run_once(now) is None:
                    idle_streak += 1
                    self._sleep(self._idle_delay(idle_streak, now))
                    continue
                idle_streak = 0
                executed += 1
                if (
                    self.config.max_jobs is not None
                    and executed >= self.config.max_jobs
                ):
                    break
        finally:
            self.close()
        obs.log_event(
            _log, "fleet.worker_stopped",
            owner=self.owner_id, executed=executed, **self.stats,
        )
        return dict(self.stats)

    def _idle_delay(self, idle_streak: int, now: float) -> float:
        """Jittered idle backoff, capped at the next eligible retry."""
        delay = full_jitter_backoff(
            idle_streak,
            base=self.config.poll_base,
            factor=self.config.backoff_factor,
            cap=self.config.poll_cap,
            rng=self._rng,
        )
        eligible_at = self.store.next_eligible_at()
        if eligible_at is not None:
            delay = min(delay, max(0.0, eligible_at - now))
        return delay
