"""The job-kind parameter tables: one declaration for the CLI and the service."""

from __future__ import annotations

import pytest

import repro.cli as cli
from repro.cli import parse_command
from repro.exceptions import ServiceError
from repro.service.workers import job_kind, job_kinds, validate_job

#: Job kinds that share their name with a ``repro-oa`` verb.
VERB_KINDS = (
    "simulate", "campaign", "faults", "fig7", "fig8", "fig9", "fig10",
    "sweep", "arena",
)

#: Params as an older server validated and stored them (its defaults);
#: a queued run re-validates at claim, so each must still validate.
STORED_BEFORE = {
    "campaign": {"clusters": 3, "resources": 40, "scenarios": 10,
                 "months": 12, "heuristic": "knapsack"},
    "simulate": {"cluster": "sagittaire", "resources": 53, "scenarios": 10,
                 "months": 12, "heuristic": "knapsack"},
    "fig7": {"scenarios": 10, "months": 12, "r_min": 11, "r_max": 40,
             "step": 4},
    "fig8": {"scenarios": 10, "months": 12, "r_min": 11, "r_max": 40,
             "step": 4},
    "fig10": {"scenarios": 10, "months": 12, "r_min": 11, "r_max": 40,
              "step": 4, "clusters": [2, 3]},
    "fig9": {"clusters": 2, "resources": 25, "scenarios": 4, "months": 6,
             "heuristic": "knapsack"},
    "sweep": {"scenarios": 10, "months": 12, "r_min": 11, "r_max": 40,
              "step": 4, "clusters": ["sagittaire"],
              "heuristics": ["basic", "redistribute", "allpost_end",
                             "knapsack"],
              "workers": 0, "chunk_size": 32},
    "faults": {"clusters": 3, "resources": 40, "scenarios": 10,
               "months": 12, "heuristic": "knapsack", "seed": 0,
               "mtbf_hours": 6.0, "mttr_hours": 1.0, "outages_only": False,
               "events": None},
    "arena": {"preset": "fig7",
              "schedulers": ["basic", "redistribute", "allpost_end",
                             "knapsack", "online-greedy", "online-knapsack",
                             "reservation", "local-search"],
              "fault_seeds": [], "include_fault_free": True, "seed": 0,
              "scenarios": 10, "months": 12, "mtbf_hours": 6.0,
              "mttr_hours": 1.0, "workers": 0, "chunk_size": 16,
              "r_min": None, "r_max": None, "step": None},
    "sleep": {"seconds": 0.0, "fail": False},
}


def _bare_verb_params(kind: str) -> dict:
    params = parse_command([kind]).params
    if kind == "arena":  # one validated race per --grids preset
        (params,) = params
    return params


class TestOneDeclaration:
    @pytest.mark.parametrize("kind", VERB_KINDS)
    def test_bare_verb_matches_service_defaults(self, kind) -> None:
        assert _bare_verb_params(kind) == validate_job(kind, {})

    @pytest.mark.parametrize("kind", VERB_KINDS)
    def test_every_flagged_param_reaches_the_verb(self, kind) -> None:
        flagged = {
            p.name for p in job_kind(kind).params if p.cli_flag is not None
        }
        assert flagged <= set(_bare_verb_params(kind))

    def test_only_events_is_wire_only(self) -> None:
        wire_only = {
            (kind.name, p.name)
            for kind in job_kinds()
            for p in kind.params
            if p.cli_flag is None
        }
        assert wire_only == {("faults", "events")}

    def test_paper_defaults(self) -> None:
        assert validate_job("fig7", {})["r_max"] == 120
        assert validate_job("fig10", {})["clusters"] == [2, 3, 4, 5]
        assert validate_job("faults", {})["months"] == 24
        # None: the arena preset's own value
        assert validate_job("arena", {})["scenarios"] is None

    def test_chunk_size_is_the_library_constant(self) -> None:
        from repro.experiments import sweep
        from repro.schedulers import arena

        assert validate_job("sweep", {})["chunk_size"] == sweep.DEFAULT_CHUNK_SIZE
        assert validate_job("arena", {})["chunk_size"] == arena.DEFAULT_CHUNK_SIZE

    def test_cli_spellings_map_to_wire_names(self) -> None:
        (params,) = parse_command(
            ["arena", "--grids", "fig8", "--faults", "3", "--no-fault-free"]
        ).params
        assert params["preset"] == "fig8"
        assert params["fault_seeds"] == [3]
        assert params["include_fault_free"] is False


class TestStoredRuns:
    @pytest.mark.parametrize("kind", [k.name for k in job_kinds()])
    def test_validation_is_idempotent(self, kind) -> None:
        clean = validate_job(kind, {})
        assert validate_job(kind, clean) == clean

    @pytest.mark.parametrize("kind", sorted(STORED_BEFORE))
    def test_older_stored_params_still_validate(self, kind) -> None:
        clean = validate_job(kind, STORED_BEFORE[kind])
        assert validate_job(kind, clean) == clean

    def test_sweep_accepts_bare_scenarios_and_months(self) -> None:
        clean = validate_job("sweep", {"scenarios": 4, "months": 3})
        assert clean["scenarios"] == [4]
        assert clean["months"] == [3]

    def test_arena_accepts_the_all_string(self) -> None:
        from repro.schedulers import list_schedulers

        clean = validate_job("arena", {"schedulers": "all"})
        assert clean["schedulers"] == list(list_schedulers())

    def test_arena_rejects_an_empty_fault_axis(self) -> None:
        with pytest.raises(ServiceError) as exc:
            validate_job(
                "arena", {"fault_seeds": [], "include_fault_free": False}
            )
        assert exc.value.code == "bad-params"


class TestCliRejections:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--resources", "0"],
            ["fig7", "--r-min", "30", "--r-max", "20"],
            ["sweep", "--step", "0"],
            ["faults", "--mtbf-hours", "0"],
            ["arena", "--mtbf-hours", "-1"],
            ["arena", "--schedulers", "magic"],
        ],
    )
    def test_bad_params_exit_2_before_any_work(
        self, argv, monkeypatch, capsys
    ) -> None:
        def forbidden(_args):
            raise AssertionError("the command ran")

        def parse_without_running(argv):
            args = parse_command(argv)
            args.run = forbidden
            return args

        monkeypatch.setattr(cli, "parse_command", parse_without_running)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_fig9_takes_the_kind_flags(self, capsys) -> None:
        assert cli.main(["fig9", "--scenarios", "3", "--months", "2"]) == 0
        assert "(6) ExecutionReport" in capsys.readouterr().out
