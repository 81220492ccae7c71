"""repro.service — the persistent campaign service.

The paper's client/MA/SeD protocol (§5, Figure 9) is a one-shot call
chain: a campaign lives and dies with the submitting interpreter.  This
subsystem turns it into a *service* — campaigns are submitted to a
long-running server, survive restarts, and are shared between users:

* :mod:`repro.service.store` — the run store over one SQL storage
  layer (:mod:`repro.service.backends`: a SQLite file by default,
  Postgres for multi-host fleets, SQLite's ``:memory:`` for tests and
  demos), with schema versioning and leased job ownership: every
  submission, state transition, result, error, and lease is durable;
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
  and the blocking client with a per-request timeout.

CLI: ``repro-oa serve | worker | submit | status | result | runs |
cancel | health``.  See ``docs/SERVICE.md`` for the architecture and
failure semantics, ``docs/DEPLOYMENT.md`` for fleet topologies.
"""

from repro._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    # store & backends
    "repro.service.store": (
        "RunStore", "RunRecord", "RUN_STATES", "SCHEMA_VERSION", "LeaseView",
    ),
    "repro.service.backends": (
        "StorageBackend", "SQLiteBackend", "PostgresBackend", "MemoryBackend",
        "backend_from_url",
    ),
    # workers
    "repro.service.workers": (
        "JobKind", "job_kinds", "validate_job", "execute_job",
    ),
    # execution
    "repro.service.fleet": (
        "FleetWorker", "WorkerConfig", "WorkerKilled", "full_jitter_backoff",
    ),
    # protocol
    "repro.service.protocol": (
        "PROTOCOL_VERSION", "OPERATIONS", "ERROR_CODES", "Request", "Response",
    ),
    # server/client
    "repro.service.server": (
        "CampaignServer", "ServerHandle", "serve_in_thread",
    ),
    "repro.service.client": ("ServiceClient",),
})
