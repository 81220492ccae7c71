"""CLI coverage for the campaign-service subcommands."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.exceptions import ServiceError
from repro.service.fleet import WorkerConfig
from repro.service.server import serve_in_thread


@pytest.fixture
def handle(tmp_path):
    h = serve_in_thread(
        tmp_path / "runs.db",
        workers=1,
        worker_config=WorkerConfig(backoff_base=0.02, backoff_cap=0.1),
    )
    yield h
    h.stop()


def _run(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _endpoint(handle) -> tuple[str, ...]:
    return ("--port", str(handle.port))


class TestParser:
    def test_serve_defaults(self) -> None:
        args = build_parser().parse_args(["serve"])
        assert args.store == "runs.db"
        assert args.port == 4321
        assert args.workers == 2

    def test_submit_requires_kind(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_runs_rejects_bad_state(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["runs", "--state", "bogus"])

    def test_param_flag_repeats(self) -> None:
        args = build_parser().parse_args(
            ["submit", "--kind", "sleep",
             "--param", "seconds=0", "--param", "fail=false"]
        )
        assert args.param == ["seconds=0", "fail=false"]


class TestAgainstLiveServer:
    def test_submit_wait_status_result(self, capsys, handle) -> None:
        out = _run(
            capsys, "submit", *_endpoint(handle),
            "--kind", "sleep", "--param", "seconds=0",
            "--wait", "--timeout", "30",
        )
        assert "state=done" in out
        run_id = out.splitlines()[0].split()[-1]

        out = _run(capsys, "status", *_endpoint(handle), run_id)
        assert f"run {run_id}" in out
        assert "kind=sleep" in out

        out = _run(capsys, "result", *_endpoint(handle), run_id)
        assert '"figure": "generic"' in out

    def test_runs_table_and_cancel(self, capsys, handle) -> None:
        blocker = _run(
            capsys, "submit", *_endpoint(handle),
            "--kind", "sleep", "--param", "seconds=5",
        ).split()[-1]
        victim = _run(
            capsys, "submit", *_endpoint(handle),
            "--kind", "sleep", "--param", "seconds=0",
        ).split()[-1]

        out = _run(capsys, "cancel", *_endpoint(handle), victim)
        assert "cancelled" in out

        out = _run(capsys, "runs", *_endpoint(handle))
        assert blocker in out
        assert victim in out
        assert "server:" in out
        assert "cancelled=1" in out

    def test_unknown_kind_raises_typed_error(self, handle) -> None:
        # The CLI follows the repo convention of letting typed errors
        # propagate; the server-side rejection keeps its code.
        with pytest.raises(ServiceError) as exc:
            main(["submit", *_endpoint(handle), "--kind", "teleport"])
        assert exc.value.code == "unknown-kind"

    def test_unreachable_server(self) -> None:
        # Port 1 is never listening; connection trouble surfaces as a
        # ServiceError, not a raw socket exception.
        with pytest.raises(ServiceError) as exc:
            main(["status", "--port", "1", "deadbeef"])
        assert exc.value.code == "internal"


class TestFleetVerbs:
    """The fleet-era verbs: ``worker`` and ``health``."""

    def test_worker_parser_defaults(self) -> None:
        args = build_parser().parse_args(["worker"])
        assert args.store == "runs.db"
        assert args.lease_seconds == 15.0
        assert args.heartbeat_interval == 5.0
        assert args.max_jobs is None
        assert args.job_timeout is None
        assert args.fleet_chaos_rate == 0.0

    def test_health_parser_defaults(self) -> None:
        args = build_parser().parse_args(["health"])
        assert args.port == 4321
        assert args.timeout == 30.0

    def test_endpoint_verbs_accept_timeout(self) -> None:
        for verb in ("status", "result", "runs", "cancel", "health"):
            argv = [verb, "--timeout", "5"]
            if verb in ("status", "result", "cancel"):
                argv.append("deadbeef")
            assert build_parser().parse_args(argv).timeout == 5.0

    def test_worker_drains_one_job(self, capsys, tmp_path) -> None:
        from repro.service.store import RunStore

        db = tmp_path / "runs.db"
        with RunStore(db) as store:
            run_id = store.submit("sleep", {"seconds": 0})
        out = _run(
            capsys, "worker", "--store", str(db),
            "--owner", "w-cli", "--max-jobs", "1",
        )
        assert "fleet worker w-cli" in out
        assert "claims=1" in out and "done=1" in out
        with RunStore(db) as store:
            assert store.get(run_id).state == "done"

    def test_health_exit_codes(self, capsys, handle) -> None:
        out = _run(capsys, "health", *_endpoint(handle))
        assert out.startswith("healthy: ")
        assert "fleet_workers=0" in out
        # Port 1 is never listening: the healthcheck contract is a
        # non-zero exit (container orchestrators key off this).
        assert main(["health", "--port", "1"]) == 1
        assert "unhealthy" in capsys.readouterr().err
