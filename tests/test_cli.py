"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_run_accepts_scale(self):
        args = build_parser().parse_args(["run", "fig04", "--scale", "15"])
        assert args.scale == 15
        assert args.experiments == ["fig04"]

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_accepts_fault_and_telemetry_flags(self):
        args = build_parser().parse_args(
            [
                "run", "fig04", "--timeout", "600", "--retries", "3",
                "--telemetry", "run.jsonl",
            ]
        )
        assert args.timeout == 600.0
        assert args.retries == 3
        assert args.telemetry == "run.jsonl"

    def test_run_accepts_checkpoint_flags(self):
        args = build_parser().parse_args(
            ["run", "fig02", "--checkpoint-dir", "--heartbeat-timeout", "5"]
        )
        assert args.checkpoint_dir is True  # bare flag => default root
        assert args.heartbeat_timeout == 5.0
        args = build_parser().parse_args(
            ["run", "fig02", "--checkpoint-dir", "runs/"]
        )
        assert args.checkpoint_dir == "runs/"

    def test_runs_command(self):
        args = build_parser().parse_args(["runs"])
        assert args.command == "runs"
        assert args.checkpoint_dir is None

    def test_resume_requires_run_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume"])

    def test_resume_accepts_executor_flags(self):
        args = build_parser().parse_args(
            [
                "resume", "1f2e3d4c5b6a", "--checkpoint-dir", "runs/",
                "--jobs", "4", "--no-cache", "--heartbeat-timeout", "30",
            ]
        )
        assert args.run_id == "1f2e3d4c5b6a"
        assert args.checkpoint_dir == "runs/"
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.heartbeat_timeout == 30.0

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_run_rejects_non_positive_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig04", "--jobs", jobs])
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_resume_rejects_non_positive_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["resume", "1f2e3d4c5b6a", "--jobs", jobs])
        assert "positive" in capsys.readouterr().err

    def test_report_accepts_telemetry_path(self):
        args = build_parser().parse_args(
            ["report", "--telemetry", "run.jsonl", "--slowest", "3"]
        )
        assert args.command == "report"
        assert args.telemetry == "run.jsonl"
        assert args.slowest == 3

    def test_report_accepts_replay_artifact(self):
        args = build_parser().parse_args(["report", "--replay", "r.json"])
        assert args.replay == "r.json"
        assert args.telemetry is None

    def test_capture_and_replay_flags(self):
        args = build_parser().parse_args(["capture", "--telemetry", "t.jsonl"])
        assert args.command == "capture"
        assert args.telemetry == "t.jsonl"
        args = build_parser().parse_args(
            ["replay", "--report", "out.json", "--json"]
        )
        assert args.report == "out.json"
        assert args.json is True
        # The pin file is the canary: no store, scale or point overrides.
        for flag in (
            ["--golden-dir", "g/"], ["--scale", "14"],
            ["--spec", "degree-count/KRON@12"],
        ):
            for command in ("capture", "replay"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([command, *flag])

    def test_replay_rejects_unknown_gate(self):
        # Counters are the only gate, so no gate (or timing band) is known.
        for flag in (["--gate", "vibes"], ["--gate", "counters"],
                     ["--time-band", "0.25"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["replay", *flag])

    def test_trend_flags(self):
        args = build_parser().parse_args(
            ["trend", "--results-dir", "r/", "--json"]
        )
        assert args.command == "trend"
        assert args.results_dir == "r/"
        assert args.json is True


class TestCommands:
    def collect(self, argv):
        lines = []
        code = main(argv, print_fn=lines.append)
        return code, "\n".join(str(line) for line in lines)

    def test_list_mentions_every_experiment(self):
        code, output = self.collect(["list"])
        assert code == 0
        for name in EXPERIMENTS:
            assert name in output

    def test_machine_describes_hierarchy(self):
        code, output = self.collect(["machine"])
        assert code == 0
        assert "L1D" in output and "LLC" in output and "DRAM" in output

    def test_inputs_prints_suite(self):
        code, output = self.collect(["inputs"])
        assert code == 0
        assert "KRON" in output and "POIS" in output

    def test_run_single_experiment(self):
        code, output = self.collect(["run", "table1", "--scale", "14"])
        assert code == 0
        assert "Table I" in output

    def test_run_multiple_experiments(self):
        code, output = self.collect(
            ["run", "fig13c", "fig04", "--scale", "14"]
        )
        assert code == 0
        assert "Figure 13c" in output
        assert "Figure 4" in output

    def test_run_writes_telemetry_and_report_summarizes_it(
        self, tmp_path, monkeypatch
    ):
        from repro.harness.experiments import common

        monkeypatch.setattr(common, "_RUNNER", None)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        telemetry = tmp_path / "run.jsonl"
        code, _ = self.collect(
            ["run", "table1", "--scale", "14", "--telemetry", str(telemetry)]
        )
        monkeypatch.setattr(common, "_RUNNER", None)
        assert code == 0
        assert telemetry.is_file()
        from repro.harness.telemetry import read_events

        assert any(
            e["event"] == "phase_timed" for e in read_events(telemetry)
        )
        code, output = self.collect(["report", "--telemetry", str(telemetry)])
        assert code == 0
        assert "Telemetry summary" in output
        assert "Simulation wall-clock by phase" in output

    def test_report_on_missing_file_fails_cleanly(self, tmp_path):
        code, output = self.collect(
            ["report", "--telemetry", str(tmp_path / "absent.jsonl")]
        )
        assert code == 1
        assert "cannot read telemetry file" in output

    def test_fault_flags_install_policy(self, tmp_path, monkeypatch):
        from repro.harness.experiments import common

        monkeypatch.setattr(common, "_RUNNER", None)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        code, output = self.collect(
            [
                "run", "table1", "--scale", "14",
                "--timeout", "600", "--retries", "1",
            ]
        )
        assert code == 0
        runner = common._RUNNER
        assert runner.fault_policy is not None
        assert runner.fault_policy.timeout == 600.0
        assert runner.fault_policy.retries == 1
        monkeypatch.setattr(common, "_RUNNER", None)


class TestCheckpointCommands:
    def collect(self, argv):
        lines = []
        code = main(argv, print_fn=lines.append)
        return code, "\n".join(str(line) for line in lines)

    def make_run(self, root, record=()):
        """Journal a two-point run under ``root``; return (id, results)."""
        from repro.harness import Runner
        from repro.harness.checkpoint import SweepCheckpoint
        from repro.workloads.registry import resolve
        from repro.harness.modes import BASELINE, PB_SW

        graph = resolve("degree-count", "KRON", scale=13)
        points = [(graph, BASELINE), (graph, PB_SW)]
        runner = Runner(max_sim_events=20_000)
        results = runner.run_many(points)
        checkpoint = SweepCheckpoint.attach(
            root, runner, points, label="cli-test"
        )
        for index in record:
            checkpoint.record(index, results[index])
        checkpoint.close()
        return checkpoint.run_id, results

    def test_runs_lists_checkpointed_runs(self, tmp_path):
        run_id, _ = self.make_run(tmp_path, record=[0])
        code, output = self.collect(
            ["runs", "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 0
        assert run_id in output
        assert "cli-test" in output
        assert "1/2" in output

    def test_runs_on_empty_root(self, tmp_path):
        code, output = self.collect(
            ["runs", "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 0
        assert "no checkpointed runs" in output

    def test_resume_finishes_pending_points(self, tmp_path, monkeypatch):
        from repro.harness import Runner
        from repro.harness.checkpoint import STATUS_COMPLETED, SweepCheckpoint
        from repro.harness.experiments import common

        run_id, _ = self.make_run(tmp_path, record=[0])
        monkeypatch.setattr(
            common, "_RUNNER", Runner(max_sim_events=20_000)
        )
        code, output = self.collect(
            [
                "resume", run_id,
                "--checkpoint-dir", str(tmp_path), "--no-cache",
            ]
        )
        monkeypatch.setattr(common, "_RUNNER", None)
        assert code == 0
        assert "completed: 2/2 points" in output
        reloaded = SweepCheckpoint.load(tmp_path, run_id)
        assert reloaded.status == STATUS_COMPLETED
        assert sorted(reloaded.completed_counters()) == [0, 1]

    def test_resume_unknown_run_fails_and_lists_runs(self, tmp_path):
        run_id, _ = self.make_run(tmp_path, record=[0])
        code, output = self.collect(
            [
                "resume", "feedfacecafe",
                "--checkpoint-dir", str(tmp_path), "--no-cache",
            ]
        )
        assert code == 1
        assert "no checkpointed run" in output
        assert run_id in output  # the known-runs listing helps recovery


class TestGoldenCommands:
    """End-to-end capture -> replay -> report cycle through the CLI."""

    def collect(self, argv):
        lines = []
        code = main(argv, print_fn=lines.append)
        return code, "\n".join(str(line) for line in lines)

    @pytest.fixture()
    def isolated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_REPLAY_PERTURB", raising=False)
        return tmp_path

    def test_capture_then_honest_replay_passes(self, isolated, monkeypatch):
        from repro.golden import replay

        tracked = replay.PINS_PATH
        monkeypatch.setattr(replay, "PINS_PATH", isolated / "pins.json")
        code, output = self.collect(["capture"])
        assert code == 0
        assert "13 pin(s)" in output
        # An unchanged tree re-records the tracked file byte for byte.
        assert (isolated / "pins.json").read_bytes() == tracked.read_bytes()
        code, output = self.collect(["replay"])
        assert code == 0
        assert "pass 13  fail 0" in output
        assert "counters bit-identical" in output

    def test_perturbed_replay_fails_counters_gate(
        self, isolated, monkeypatch
    ):
        """The CI drill: perturbed counters fail against the tracked pins."""
        monkeypatch.setenv("REPRO_REPLAY_PERTURB", "1")
        report_path = isolated / "replay.json"
        code, output = self.collect(["replay", "--report", str(report_path)])
        assert code == 1
        assert "COUNTER DRIFT DETECTED" in output
        assert "phases[0].instructions" in output
        # The artifact renders identically through `report --replay`.
        code, rendered = self.collect(
            ["report", "--replay", str(report_path)]
        )
        assert code == 0
        assert "COUNTER DRIFT DETECTED" in rendered

    def test_replay_emits_json_payload(self, isolated):
        code, output = self.collect(["replay", "--json"])
        assert code == 0
        import json

        payload = json.loads(output)
        assert payload["ok"] is True
        assert payload["summary"]["pass"] == 13

    def test_replay_against_empty_pins_fails(self, isolated, monkeypatch):
        from repro.golden import replay

        monkeypatch.setattr(replay, "PINS_PATH", isolated / "absent.json")
        code, output = self.collect(["replay"])
        assert code == 1
        assert "missing 13" in output
        assert "python -m repro capture" in output

    def test_replay_on_malformed_pins_is_exit_2(self, isolated, monkeypatch):
        from repro.golden import replay

        path = isolated / "pins.json"
        path.write_text("torn{", "utf-8")
        monkeypatch.setattr(replay, "PINS_PATH", path)
        code, output = self.collect(["replay"])
        assert code == 2
        assert "unreadable pin file" in output

    def test_report_needs_exactly_one_source(self, tmp_path):
        code, output = self.collect(["report"])
        assert code == 2
        assert "exactly one" in output
        code, output = self.collect(
            ["report", "--telemetry", "a", "--replay", "b"]
        )
        assert code == 2

    def test_report_on_unreadable_replay_artifact(self, tmp_path):
        code, output = self.collect(
            ["report", "--replay", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "cannot read replay report" in output

    def test_trend_renders_accumulated_history(self, tmp_path):
        from repro.harness.benchhistory import append_bench_record

        path = tmp_path / "BENCH_demo.json"
        append_bench_record(path, {"speedup": 2.0}, git_sha="a" * 40)
        append_bench_record(path, {"speedup": 3.0}, git_sha="b" * 40)
        code, output = self.collect(
            ["trend", "--results-dir", str(tmp_path)]
        )
        assert code == 0
        assert "demo (2 entries)" in output
        assert "net change (newest vs oldest): speedup +50.0%" in output

    def test_trend_json_mode(self, tmp_path):
        from repro.harness.benchhistory import append_bench_record

        append_bench_record(
            tmp_path / "BENCH_demo.json", {"speedup": 2.0}, git_sha="x"
        )
        code, output = self.collect(
            ["trend", "--results-dir", str(tmp_path), "--json"]
        )
        assert code == 0
        import json

        data = json.loads(output)
        assert data["benches"][0]["bench"] == "demo"


def test_registry_matches_design_doc():
    # Every evaluation artifact of the paper has a CLI entry.
    expected = {
        "fig02", "fig04", "fig05", "fig10", "fig10x", "fig11", "fig12",
        "fig13a", "fig13b", "fig13c", "fig14", "fig15", "table1",
        "scaling", "mrc",
    }
    assert set(EXPERIMENTS) == expected


class TestServiceCommands:
    def collect(self, argv):
        lines = []
        code = main(argv, print_fn=lines.append)
        return code, "\n".join(str(line) for line in lines)

    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--state-dir", "/tmp/svc",
                "--queue-max", "4", "--client-max", "2", "--jobs", "3",
                "--drain-deadline", "5", "--telemetry", "t.jsonl",
                "--timeout", "60", "--heartbeat-timeout", "2",
            ]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.queue_max == 4
        assert args.client_max == 2
        assert args.jobs == 3
        assert args.drain_deadline == 5.0
        assert args.heartbeat_timeout == 2.0

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port is None  # resolved via REPRO_SERVICE_PORT
        assert args.state_dir is None
        assert args.jobs == 2

    def test_submit_flags(self):
        args = build_parser().parse_args(
            [
                "submit", "degree-count:KRON:13:cobra",
                "integer-sort:U16:13",
                "--label", "L", "--client", "me", "--wait",
                "--state-dir", "/tmp/svc",
            ]
        )
        assert args.command == "submit"
        assert len(args.points) == 2
        assert args.wait

    def test_submit_requires_points(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])

    def test_jobs_flags(self):
        args = build_parser().parse_args(
            ["jobs", "--json", "--port", "8377"]
        )
        assert args.command == "jobs"
        assert args.json and args.port == 8377

    def test_submit_bad_point_spec_is_exit_2(self, tmp_path):
        code, output = self.collect(
            ["submit", "not-a-spec", "--state-dir", str(tmp_path)]
        )
        assert code == 2
        assert "workload:input:scale" in output

    def test_submit_without_daemon_fails_cleanly(self, tmp_path):
        code, output = self.collect(
            [
                "submit", "degree-count:KRON:8",
                "--state-dir", str(tmp_path / "empty"),
            ]
        )
        assert code == 1
        assert "submit failed" in output

    def test_jobs_without_daemon_fails_cleanly(self, tmp_path):
        code, output = self.collect(
            ["jobs", "--state-dir", str(tmp_path / "empty")]
        )
        assert code == 1
        assert "cannot reach" in output


class TestRunsJson:
    def test_runs_json_shares_service_serializer(self, tmp_path):
        import json as jsonlib

        lines = []
        helper = TestCheckpointCommands()
        run_id, _ = helper.make_run(tmp_path, record=[0])
        code = main(
            ["runs", "--checkpoint-dir", str(tmp_path), "--json"],
            print_fn=lines.append,
        )
        assert code == 0
        payload = jsonlib.loads("\n".join(lines))
        from repro.harness.checkpoint import FORMAT_VERSION

        assert payload["version"] == FORMAT_VERSION
        (run,) = payload["runs"]
        assert run["run_id"] == run_id
        assert run["label"] == "cli-test"
        assert run["completed"] == 1 and run["total"] == 2
        # Same key set the sweep service embeds per job under "run".
        assert set(run) == {
            "run_id", "label", "status", "completed", "total", "updated"
        }

    def test_runs_json_empty_root(self, tmp_path):
        import json as jsonlib

        lines = []
        code = main(
            ["runs", "--checkpoint-dir", str(tmp_path), "--json"],
            print_fn=lines.append,
        )
        assert code == 0
        assert jsonlib.loads("\n".join(lines))["runs"] == []


class TestWorkloadRegistryCLI:
    """The registry-facing surfaces: `workloads`, `point --spec`, and
    slash-form specs on `submit`."""

    def collect(self, argv):
        lines = []
        code = main(argv, print_fn=lines.append)
        return code, "\n".join(str(line) for line in lines)

    def test_parser_accepts_point_spec(self):
        args = build_parser().parse_args(
            ["point", "--spec", "degree-count/KRON@12", "--mode", "cobra"]
        )
        assert args.spec == "degree-count/KRON@12"
        assert args.workload is None and args.input is None

    def test_parser_keeps_deprecated_positionals(self):
        args = build_parser().parse_args(["point", "degree-count", "KRON"])
        assert args.workload == "degree-count"
        assert args.input == "KRON"
        assert args.spec is None

    def test_workloads_lists_full_registry(self):
        from repro.workloads.registry import WORKLOADS

        code, output = self.collect(["workloads"])
        assert code == 0
        for name in WORKLOADS:
            assert name in output
        assert "Workload registry" in output

    def test_workloads_json_is_machine_readable(self):
        import json

        from repro.workloads.registry import WORKLOADS

        code, output = self.collect(["workloads", "--json"])
        assert code == 0
        rows = json.loads(output)
        assert {row["workload"] for row in rows} == set(WORKLOADS)
        by_name = {row["workload"]: row for row in rows}
        assert by_name["csr-build"]["extension"] is True
        assert "csr-build/KARATE@6" in by_name["csr-build"]["specs"]

    def test_inputs_lists_ingested_datasets(self):
        code, output = self.collect(["inputs"])
        assert code == 0
        assert "KARATE" in output and "FLORENT" in output

    def test_point_spec_runs_end_to_end(self):
        code, output = self.collect(
            ["point", "--spec", "degree-count/KRON@10", "--no-cache"]
        )
        assert code == 0
        assert "degree-count" in output
        assert "total:" in output

    def test_point_spec_runs_ingested_graph(self):
        code, output = self.collect(
            ["point", "--spec", "csr-build/KARATE", "--no-cache", "--json"]
        )
        assert code == 0
        import json

        payload = json.loads(output)
        assert payload["workload"] == "csr-build"

    def test_point_rejects_spec_plus_positionals(self):
        code, output = self.collect(
            ["point", "degree-count", "KRON", "--spec", "degree-count/KRON"]
        )
        assert code == 2
        assert "either --spec or positional" in output

    def test_point_rejects_double_scale(self):
        code, output = self.collect(
            ["point", "--spec", "degree-count/KRON@10", "--scale", "11"]
        )
        assert code == 2
        assert "either in --spec or via --scale" in output

    def test_point_without_any_point_is_exit_2(self):
        code, output = self.collect(["point"])
        assert code == 2
        assert "--spec" in output

    def test_point_rejects_fixed_scale_conflict(self):
        code, output = self.collect(
            ["point", "--spec", "csr-build/KARATE@12", "--no-cache"]
        )
        assert code == 2
        assert "fixed at" in output

    def test_submit_accepts_slash_spec_form(self, tmp_path):
        # Spec parses (so no exit 2); the daemon is absent (exit 1).
        code, output = self.collect(
            [
                "submit", "degree-count/KRON@8:cobra",
                "--state-dir", str(tmp_path / "empty"),
            ]
        )
        assert code == 1
        assert "submit failed" in output

    def test_submit_slash_spec_with_unknown_workload_is_exit_2(
        self, tmp_path
    ):
        code, output = self.collect(
            ["submit", "nope/KRON@8", "--state-dir", str(tmp_path)]
        )
        assert code == 2
        assert "unknown workload" in output
