"""repro.service — the persistent campaign service.

The paper's client/MA/SeD protocol (§5, Figure 9) is a one-shot call
chain: a campaign lives and dies with the submitting interpreter.  This
subsystem turns it into a *service* — campaigns are submitted to a
long-running server, survive restarts, and are shared between users:

* :mod:`repro.service.store` — the run store over pluggable storage
  backends (:mod:`repro.service.backends`: SQLite by default,
  Postgres for multi-host fleets, in-memory for tests), with schema
  versioning and leased job ownership: every submission, state
  transition, result, error, and lease is durable;
* :mod:`repro.service.workers` — the registry of job kinds (campaign,
  simulate, figure sweeps, ...) and the picklable worker entry point;
* :mod:`repro.service.fleet` — the one job-execution routine: a
  :class:`FleetWorker` claims a job under a lease, runs it in its own
  child process under a per-job deadline while heartbeating, and
  completes with an owner-checked write or one shared retry-with-
  backoff routine.  The server's local pool and every ``repro-oa
  worker`` process are such workers, and the server's reaper recovers
  the runs of any that die;
* :mod:`repro.service.protocol` — versioned NDJSON wire protocol with
  typed error replies;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  asyncio TCP server (local worker pool, wake-on-submit, lease reaper)
  and the blocking client with connect/read timeouts.

CLI: ``repro-oa serve | worker | submit | status | result | runs |
cancel | health``.  See ``docs/SERVICE.md`` for the architecture and
failure semantics, ``docs/DEPLOYMENT.md`` for fleet topologies.
"""

from __future__ import annotations

from repro.service.backends import (
    MemoryBackend,
    PostgresBackend,
    SQLiteBackend,
    StorageBackend,
    backend_from_url,
)
from repro.service.client import ServiceClient
from repro.service.fleet import (
    FleetWorker,
    WorkerConfig,
    WorkerKilled,
    full_jitter_backoff,
)
from repro.service.protocol import (
    ERROR_CODES,
    OPERATIONS,
    PROTOCOL_VERSION,
    Request,
    Response,
)
from repro.service.server import CampaignServer, ServerHandle, serve_in_thread
from repro.service.store import (
    RUN_STATES,
    SCHEMA_VERSION,
    LeaseView,
    RunRecord,
    RunStore,
)
from repro.service.workers import (
    JobKind,
    execute_job,
    job_kinds,
    validate_job,
)

__all__ = [
    # store & backends
    "RunStore",
    "RunRecord",
    "RUN_STATES",
    "SCHEMA_VERSION",
    "LeaseView",
    "StorageBackend",
    "SQLiteBackend",
    "PostgresBackend",
    "MemoryBackend",
    "backend_from_url",
    # workers
    "JobKind",
    "job_kinds",
    "validate_job",
    "execute_job",
    # execution
    "FleetWorker",
    "WorkerConfig",
    "WorkerKilled",
    "full_jitter_backoff",
    # protocol
    "PROTOCOL_VERSION",
    "OPERATIONS",
    "ERROR_CODES",
    "Request",
    "Response",
    # server/client
    "CampaignServer",
    "ServerHandle",
    "serve_in_thread",
    "ServiceClient",
]
