"""A blocking client for the campaign service.

Speaks the NDJSON protocol of :mod:`repro.service.protocol` over a
plain TCP socket — deliberately synchronous, because its callers (the
CLI, scripts, tests) are synchronous.  One client holds one connection
and may issue any number of requests; typed server errors surface as
:class:`~repro.exceptions.ServiceError` with the wire error code on
``exc.code``.

Typical use::

    with ServiceClient(port=port) as client:
        run_id = client.submit("campaign", {"clusters": 3, "resources": 40})
        status = client.wait(run_id, timeout=120)
        if status["state"] == "done":
            payload = client.result(run_id)
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any

from repro import obs
from repro.exceptions import ServiceError
from repro.obs.context import TraceContext, current_trace, mint_trace
from repro.service import protocol
from repro.service.fleet import full_jitter_backoff

__all__ = ["ServiceClient"]


class ServiceClient:
    """Synchronous campaign-service client (see module docstring).

    Every :meth:`submit` carries a :class:`~repro.obs.context.TraceContext`:
    the process-locally active one (:func:`~repro.obs.context.use_trace`),
    or a freshly minted one.  The accepted context — bound to its run id
    — is kept on :attr:`last_trace`, so callers can join the client's
    own spans, the store row, and the worker-side trace on one
    ``trace_id``.

    Timeouts: ``timeout`` bounds both the connection attempt and each
    reply read; ``connect_timeout`` / ``read_timeout`` override either
    individually.  A timed-out request surfaces as
    :class:`~repro.exceptions.ServiceError` with code ``timeout``, so
    a hung server can no longer block a caller forever.  Failed
    *connection* attempts are retried ``connect_retries`` times with
    seeded full-jitter backoff
    (:func:`~repro.service.fleet.full_jitter_backoff`) — the seed
    makes retry schedules replayable in tests.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4321,
        *,
        timeout: float = 30.0,
        connect_timeout: float | None = None,
        read_timeout: float | None = None,
        connect_retries: int = 2,
        retry_base: float = 0.1,
        retry_cap: float = 2.0,
        retry_seed: int | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            connect_timeout if connect_timeout is not None else timeout
        )
        self.read_timeout = (
            read_timeout if read_timeout is not None else timeout
        )
        self.connect_retries = max(0, connect_retries)
        self.retry_base = retry_base
        self.retry_cap = retry_cap
        self._retry_rng = random.Random(retry_seed)
        self.last_trace: TraceContext | None = None
        self._sock: socket.socket | None = None
        self._reader = None

    # -- plumbing ----------------------------------------------------------

    def _connect_once(self) -> socket.socket:
        return socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )

    def _connect(self) -> None:
        if self._sock is not None:
            return
        last_error: OSError | None = None
        for attempt in range(1, self.connect_retries + 2):
            try:
                self._sock = self._connect_once()
                break
            except OSError as exc:
                last_error = exc
                if attempt > self.connect_retries:
                    code = (
                        "timeout"
                        if isinstance(exc, socket.timeout)
                        else "internal"
                    )
                    raise ServiceError(
                        f"cannot connect to service at "
                        f"{self.host}:{self.port} after {attempt} "
                        f"attempt(s): {exc}",
                        code=code,
                    ) from None
                time.sleep(
                    full_jitter_backoff(
                        attempt,
                        base=self.retry_base,
                        factor=2.0,
                        cap=self.retry_cap,
                        rng=self._retry_rng,
                    )
                )
        assert self._sock is not None, last_error
        # Per-reply read budget; sendall shares the same socket timeout.
        self._sock.settimeout(self.read_timeout)
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def _request(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        """One round-trip; raises typed :class:`ServiceError` on failure."""
        self._connect()
        assert self._sock is not None and self._reader is not None
        line = protocol.encode_request(
            protocol.Request(op=op, payload=payload)
        )
        try:
            self._sock.sendall((line + "\n").encode("utf-8"))
            reply = self._reader.readline()
        except socket.timeout:
            self.close()
            raise ServiceError(
                f"no reply from {self.host}:{self.port} within "
                f"{self.read_timeout}s (op {op!r})",
                code="timeout",
            ) from None
        except OSError as exc:
            self.close()
            raise ServiceError(
                f"connection to {self.host}:{self.port} broke: {exc}",
                code="internal",
            ) from None
        if not reply:
            self.close()
            raise ServiceError(
                f"service at {self.host}:{self.port} closed the connection",
                code="internal",
            )
        response = protocol.decode_response(reply)
        response.raise_for_error()
        return response.payload

    def close(self) -> None:
        """Drop the connection (the client reconnects on next use)."""
        if self._reader is not None:
            try:
                self._reader.close()
            except OSError:
                pass
            self._reader = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: connect eagerly."""
        self._connect()
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # -- operations --------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: dict[str, Any] | None = None,
        *,
        max_attempts: int | None = None,
        trace: TraceContext | str | None = None,
    ) -> str:
        """Queue a job; returns its run id.

        ``trace`` pins the trace context explicitly (a
        :class:`~repro.obs.context.TraceContext` or a bare trace id
        string); by default the process-locally active context is used,
        or a fresh one is minted.  The run-bound context lands on
        :attr:`last_trace`.
        """
        if trace is None:
            context = current_trace() or mint_trace()
        elif isinstance(trace, str):
            context = TraceContext(trace_id=trace)
        else:
            context = trace
        payload: dict[str, Any] = {
            "kind": kind,
            "params": params or {},
            "trace_id": context.trace_id,
        }
        if max_attempts is not None:
            payload["max_attempts"] = max_attempts
        with obs.span(
            "service.client.submit", kind=kind, trace_id=context.trace_id
        ):
            reply = self._request("submit", payload)
        self.last_trace = context.with_run(reply["run_id"])
        return reply["run_id"]

    def status(self, run_id: str) -> dict[str, Any]:
        """The run's summary (state, attempts, error, timestamps)."""
        return self._request("status", {"run_id": run_id})

    def result(self, run_id: str) -> dict[str, Any]:
        """The stored result envelope of a ``done`` run.

        The ``result`` key holds the parsed
        :func:`repro.experiments.results_io.dump_result` envelope;
        feed ``json.dumps(payload["result"])`` to
        :func:`~repro.experiments.results_io.load_result` to get the
        original object back.
        """
        return self._request("result", {"run_id": run_id})

    def runs(
        self, state: str | None = None, *, limit: int = 100
    ) -> list[dict[str, Any]]:
        """Run summaries, newest first, optionally filtered by state."""
        payload: dict[str, Any] = {"limit": limit}
        if state is not None:
            payload["state"] = state
        return self._request("list", payload)["runs"]

    def cancel(self, run_id: str) -> dict[str, Any]:
        """Cancel a queued run; typed error if it already started."""
        return self._request("cancel", {"run_id": run_id})

    def health(self) -> dict[str, Any]:
        """Server liveness: version, uptime, worker and queue counts."""
        return self._request("health", {})

    def wait(
        self,
        run_id: str,
        *,
        timeout: float = 120.0,
        poll: float = 0.05,
    ) -> dict[str, Any]:
        """Poll until the run reaches a terminal state; returns its summary."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(run_id)
            if status["state"] in ("done", "failed", "cancelled"):
                return status
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"run {run_id} still {status['state']} after {timeout}s",
                    code="timeout",
                )
            time.sleep(poll)
