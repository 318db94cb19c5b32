"""Tests for the command-line interface."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main

#: stdout of pinned commands, byte for byte
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"


def _golden(name: str) -> str:
    return (GOLDEN_CLI / name).read_text()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _figure_pins() -> dict:
    """SHA-256 of full ``figures`` stdout and of each ``--output`` file."""
    return json.loads(_golden("figures-sha256.json"))


class TestList:
    def test_lists_all_configurations(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("Cf", "Cc", "C1.5", "C2.8"):
            assert name in out


class TestRun:
    def test_runs_configuration(self, capsys):
        assert main(["run", "C1.5", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "ensemble makespan" in out
        assert "F(P^{U,A,P})" in out
        assert "em1.sim" in out

    def test_unknown_configuration_fails(self, capsys):
        assert main(["run", "C9.9"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_seed_and_noise_flags(self, capsys):
        assert (
            main(["run", "Cc", "--steps", "4", "--seed", "3",
                  "--noise", "0.05"]) == 0
        )


class TestSweep:
    def test_prints_sweep_table(self, capsys):
        assert main(["sweep"]) == 0
        out = capsys.readouterr().out
        assert "analysis_cores" in out
        assert "heuristic selects 8 cores" in out

    def test_custom_settings(self, capsys):
        assert main(["sweep", "--sim-cores", "8", "--stride", "400"]) == 0

    def test_invalid_settings_exit_one(self, capsys):
        assert main(["sweep", "--sim-cores", "0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFaults:
    def test_injected_run_prints_report(self, capsys):
        assert (
            main(["faults", "C1.5", "--rate", "0.2", "--steps", "5",
                  "--policy", "retry"]) == 0
        )
        out = capsys.readouterr().out
        assert "fault log" in out
        assert "goodput" in out
        assert "F(P^{U,A,P})" in out

    def test_experiment_mode(self, capsys):
        assert (
            main(["faults", "--experiment", "--steps", "3",
                  "--trials", "1"]) == 0
        )
        out = capsys.readouterr().out
        assert "resilience" in out
        assert "rank" in out

    def test_unknown_configuration_fails(self, capsys):
        assert main(["faults", "C9.9"]) == 2
        assert "unknown configuration" in capsys.readouterr().err

    def test_missing_configuration_fails(self, capsys):
        assert main(["faults"]) == 2
        assert "required unless --experiment" in capsys.readouterr().err

    def test_unknown_kind_fails(self, capsys):
        assert main(["faults", "C1.5", "--kinds", "crash,gremlin"]) == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_unknown_policy_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["faults", "C1.5", "--policy", "pray"])
        assert exc.value.code == 2


class TestPlan:
    def test_plans_and_prints(self, capsys):
        assert (
            main(["plan", "--members", "2", "--analyses", "1",
                  "--nodes", "2", "--steps", "4"]) == 0
        )
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "F(P^{U,A,P})" in out

    def test_impossible_budget_reports_error(self, capsys):
        assert (
            main(["plan", "--members", "4", "--analyses", "2",
                  "--nodes", "1"]) == 1
        )
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rate, shown", [("-1", "-1.0"), ("2", "2.0"), ("nan", "nan")]
    )
    def test_robust_rate_outside_unit_interval_fails(
        self, capsys, rate, shown
    ):
        assert (
            main(["plan", "--robust-rate", rate, "--members", "1",
                  "--nodes", "1", "--steps", "4"]) == 1
        )
        assert capsys.readouterr().err == (
            f"error: rate must lie in [0, 1], got {shown}\n"
        )


class TestPlanJson:
    def test_json_output_is_wire_format(self, capsys):
        import json

        assert (
            main(["plan", "--members", "2", "--analyses", "1",
                  "--nodes", "2", "--steps", "4", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["node_budget"] == 2
        assert len(payload["spec"]["members"]) == 2

    def test_json_deserializes_and_rescores_exactly(self, capsys):
        import json

        from repro.scheduler.objectives import score_placement
        from repro.service.schemas import (
            placement_from_dict,
            score_from_dict,
            spec_from_dict,
        )

        assert (
            main(["plan", "--members", "2", "--analyses", "1",
                  "--nodes", "2", "--steps", "4", "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        spec = spec_from_dict(payload["spec"])
        placement = placement_from_dict(payload["placement"])
        reported = score_from_dict(payload["score"])
        rescored = score_placement(spec, placement)
        assert rescored.objective == reported.objective
        assert rescored.ensemble_makespan == reported.ensemble_makespan


class TestServe:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.workers == 2
        assert args.cache_entries == 1024
        assert args.job_timeout is None

    def test_verify_service_flag(self, capsys):
        assert main(["verify", "C1.1", "--steps", "4", "--service"]) == 0
        assert "ok" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--job-timeout", "-1", "job_timeout must be > 0"),
            ("--job-timeout", "0", "job_timeout must be > 0"),
            ("--job-timeout", "nan", "job_timeout must be finite"),
            ("--workers", "0", "workers must be > 0"),
            ("--cache-entries", "0", "max_entries must be > 0"),
        ],
    )
    def test_bad_settings_exit_one_before_binding(
        self, monkeypatch, capsys, flag, value, message
    ):
        from repro.service import api

        def no_listener(*args, **kwargs):
            raise AssertionError("a port was bound")

        monkeypatch.setattr(api, "ThreadingHTTPServer", no_listener)
        assert main(["serve", "--port", "0", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err


class TestFigures:
    def test_fast_figures(self, capsys):
        assert main(["figures", "--fast"]) == 0
        out = capsys.readouterr().out
        for artifact in ("fig3", "fig4", "fig5", "fig7", "fig8", "fig9",
                         "headline", "ablation-contention"):
            assert artifact in out

    def test_fast_figures_are_golden(self, capsys):
        assert main(["figures", "--fast"]) == 0
        assert capsys.readouterr().out == _golden("figures-fast.txt")

    def test_full_figures_digest_is_pinned(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert _sha256(out.encode()) == _figure_pins()["figures"]


class TestCompare:
    def test_default_set(self, capsys):
        assert main(["compare", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert "F(U,A,P)" in out
        # C1.5 ranked first
        first_row = out.splitlines()[1]
        assert first_row.startswith("C1.5")

    def test_explicit_configs(self, capsys):
        assert main(["compare", "C2.6", "C2.8", "--steps", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("C2.8")

    def test_unknown_config_rejected(self, capsys):
        assert main(["compare", "C7.7"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_mixed_shapes_rejected(self, capsys):
        assert main(["compare", "Cf", "C1.5"]) == 2
        assert "share member" in capsys.readouterr().err


class TestFiguresOutput:
    def test_json_artifacts_written(self, capsys, tmp_path):
        outdir = tmp_path / "artifacts"
        assert main(["figures", "--fast", "--output", str(outdir)]) == 0
        files = {p.name for p in outdir.glob("*.json")}
        assert "fig8.json" in files
        assert "headline.json" in files
        from repro.experiments.base import ExperimentResult

        loaded = ExperimentResult.load(outdir / "fig8.json")
        assert loaded.experiment_id == "fig8"

    def test_json_artifacts_are_pinned(self, capsys, tmp_path):
        assert main(["figures", "--fast", "--output", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            _golden("figures-fast.txt")
            + f"saved 11 JSON artifacts to {tmp_path}\n"
        )
        written = {
            path.name: _sha256(path.read_bytes())
            for path in tmp_path.glob("*.json")
        }
        assert written == _figure_pins()["figures --fast --output"]


class TestReschedule:
    ARGS = ["reschedule", "C1.3", "--steps", "16", "--verify"]

    def test_text_is_golden(self, capsys):
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == _golden(
            "reschedule-c1.3-steps16-verify.txt"
        )

    def test_json_is_golden(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        assert capsys.readouterr().out == _golden(
            "reschedule-c1.3-steps16-verify.json"
        )

    def test_noise_free_json_is_the_service_payload(self, capsys):
        from repro.configs.base import build_spec
        from repro.configs.table2 import TABLE2_CONFIGS
        from repro.service.schemas import PlacementRequest, RescheduleOptions
        from repro.service.workers import execute_request

        assert main(["reschedule", "C1.3", "--noise", "0", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        config = TABLE2_CONFIGS["C1.3"]
        placement = config.placement()
        served = execute_request(
            PlacementRequest(
                kind="reschedule",
                spec=build_spec(config, n_steps=24),
                num_nodes=placement.num_nodes,
                placement=placement,
                reschedule=RescheduleOptions(),
            )
        )
        assert printed.pop("config") == "C1.3"
        assert printed.pop("drift") == {
            "node": 0, "kind": "step", "magnitude": 2.5, "start_step": 4,
        }
        assert printed == json.loads(json.dumps(served))

    def test_step_magnitude_above_the_cap_is_rejected(self, capsys):
        assert main(["reschedule", "C1.3", "--drift-magnitude", "9"]) == 1
        assert capsys.readouterr().err == (
            "error: step drift_magnitude must be in (1, 4], got 9.0\n"
        )

    def test_drift_node_off_the_placement_is_rejected(self, capsys):
        assert main(["reschedule", "C1.3", "--drift-node", "7"]) == 1
        assert capsys.readouterr().err == (
            "error: reschedule.drift_node 7 must lie below the "
            "placement's 3 nodes\n"
        )

    def test_unknown_configuration_fails(self, capsys):
        assert main(["reschedule", "C9.9"]) == 2
        assert "unknown configuration" in capsys.readouterr().err


class TestCoschedule:
    def test_text_is_golden(self, capsys):
        assert main(["coschedule"]) == 0
        assert capsys.readouterr().out == _golden("coschedule.txt")

    def test_json_is_golden(self, capsys):
        assert main(["coschedule", "--json"]) == 0
        assert capsys.readouterr().out == _golden("coschedule.json")

    def test_json_schedule_is_the_service_payload(self, capsys):
        from repro.coschedule import canonical_mixed_deadline_stream
        from repro.service.schemas import CoscheduleOptions, PlacementRequest
        from repro.service.workers import execute_request

        assert main(["coschedule", "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        stream = tuple(canonical_mixed_deadline_stream())
        served = execute_request(
            PlacementRequest(
                kind="coschedule",
                spec=stream[0].spec,
                num_nodes=6,
                coschedule=CoscheduleOptions(requests=stream),
            )
        )
        assert printed["coschedule"] == json.loads(
            json.dumps(served["coschedule"])
        )

