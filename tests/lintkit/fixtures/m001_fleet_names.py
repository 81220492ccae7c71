"""Known-bad fixture: typos of the worker-fleet lease names — proves an
unregistered ``service.fleet*``/``service.lease*`` name is caught."""

from repro import obs


def claim(kind: str) -> None:
    obs.inc("service.fleet_claimz", kind=kind)  # EXPECT[M001]
    obs.inc("service.fleet_heartbeat", owner="w1")  # EXPECT[M001]
    with obs.span("service.fleet.jobs", kind=kind):  # EXPECT[M001]
        pass
    obs.inc("service.fleet_job_done", kind=kind)  # EXPECT[M001]


def reap(now: float) -> None:
    with obs.span("service.lease_reap", reap=True):  # EXPECT[M001]
        pass
    obs.inc("service.lease_expire")  # EXPECT[M001]
    obs.inc("service.lease_reassignment")  # EXPECT[M001]
    obs.inc("service.leases_lost", owner="w1")  # EXPECT[M001]
    obs.set_gauge("service.lease_live", 3)  # EXPECT[M001]
    obs.set_gauge("service.lease_age_second", now)  # EXPECT[M001]


def declared_ok(kind: str, now: float) -> None:
    # The registered fleet/lease names pass untouched.
    obs.inc("service.fleet_claims", kind=kind)
    obs.inc("service.fleet_heartbeats", owner="w1")
    obs.inc("service.jobs_done", kind=kind)
    with obs.span("service.job", kind=kind):
        pass
    with obs.span("service.lease", reap=True):
        pass
    obs.inc("service.lease_expired")
    obs.inc("service.lease_reassignments")
    obs.inc("service.lease_lost", owner="w1")
    obs.set_gauge("service.leases_live", 3)
    obs.set_gauge("service.lease_age_seconds", now)
