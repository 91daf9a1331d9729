"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _load_batch_spec, build_parser, main
from repro.errors import ConfigurationError
from tests.oracles import PerCandidateSession, ScratchSession, oracle_sessions


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_opacity_defaults(self):
        args = build_parser().parse_args(["opacity", "--dataset", "gnutella"])
        args_dict = vars(args)
        assert args_dict["dataset"] == "gnutella"
        assert args_dict["length"] == 1

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["opacity", "--dataset", "facebook"])


class TestCommands:
    def test_opacity_command(self, capsys):
        exit_code = main(["opacity", "--dataset", "gnutella", "--size", "40",
                          "--length", "2", "--seed", "0"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "max L-opacity=" in captured

    def test_anonymize_command_writes_output(self, tmp_path, capsys):
        output = tmp_path / "anon.edges"
        exit_code = main(["anonymize", "--dataset", "gnutella", "--size", "40",
                          "--algorithm", "rem", "--theta", "0.6", "--length", "1",
                          "--seed", "0", "--output", str(output)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert output.exists()
        assert "distortion=" in captured

    @staticmethod
    def _anonymize_output(path, session_class=None, extra=()):
        """Edge list written by ``anonymize``, on ``session_class`` if given."""
        argv = ["anonymize", "--dataset", "gnutella", "--size", "40",
                "--algorithm", "rem", "--theta", "0.6", "--length", "1",
                "--seed", "0", "--output", str(path), *extra]
        if session_class is None:
            assert main(argv) == 0
            return path.read_text()
        with oracle_sessions(session_class) as opened:
            assert main(argv) == 0
        assert sum(session.evaluations for session in opened) > 0
        return path.read_text()

    def test_anonymize_command_evaluation_modes_agree(self, tmp_path, capsys):
        # The product's incremental session against the copy-evaluate-restore
        # oracle, end to end through the CLI.
        product = self._anonymize_output(tmp_path / "anon-product.edges")
        scratch = self._anonymize_output(tmp_path / "anon-scratch.edges",
                                         ScratchSession)
        assert product == scratch

    def test_anonymize_command_rejects_unknown_evaluation_mode(self, capsys):
        # The flag is retired: every value is an unrecognised argument.
        for mode in ("lazy", "scratch", "incremental"):
            with pytest.raises(SystemExit):
                main(["anonymize", "--dataset", "gnutella", "--size", "40",
                      "--evaluation-mode", mode])
            assert "--evaluation-mode" in capsys.readouterr().err

    def test_anonymize_command_batched_and_per_candidate_scans_agree(
            self, tmp_path, capsys):
        # Stacked batch scans against the per-candidate oracle.
        batched = self._anonymize_output(tmp_path / "anon-batched.edges")
        per_candidate = self._anonymize_output(
            tmp_path / "anon-per-candidate.edges", PerCandidateSession)
        assert batched == per_candidate

    def test_anonymize_and_sweep_reject_the_retired_scan_mode_flag(
            self, capsys):
        # The flag is retired (--scan-workers alone decides): every value
        # is an unrecognised argument.
        for command in ("anonymize", "sweep"):
            for mode in ("batched", "parallel"):
                with pytest.raises(SystemExit):
                    main([command, "--dataset", "gnutella", "--size", "40",
                          "--scan-mode", mode])
                assert "--scan-mode" in capsys.readouterr().err

    def test_anonymize_command_parallel_scan_agrees_with_serial(
            self, tmp_path, capsys):
        outputs = {}
        for workers in ("0", "2"):
            output = tmp_path / f"anon-{workers}.edges"
            exit_code = main(["anonymize", "--dataset", "gnutella",
                              "--size", "40", "--algorithm", "rem",
                              "--theta", "0.6", "--length", "2",
                              "--seed", "0", "--scan-workers", workers,
                              "--output", str(output)])
            assert exit_code == 0
            outputs[workers] = output.read_text()
        assert outputs["0"] == outputs["2"]

    def test_anonymize_command_rejects_negative_scan_workers(self, capsys):
        exit_code = main(["anonymize", "--dataset", "gnutella", "--size", "40",
                          "--scan-workers", "-1"])
        assert exit_code != 0

    def test_anonymize_command_reads_edge_list(self, tmp_path, capsys):
        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.io import write_edge_list
        path = tmp_path / "input.edges"
        write_edge_list(erdos_renyi_graph(30, 0.2, seed=0), path)
        exit_code = main(["anonymize", "--input", str(path), "--theta", "0.6",
                          "--seed", "0"])
        assert exit_code == 0
        assert "theta=0.60" in capsys.readouterr().out

    def test_tables_command_published_only(self, capsys):
        exit_code = main(["tables", "--no-measure"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in captured and "Table 3" in captured
        assert "google" in captured

    def test_figure_command(self, capsys):
        exit_code = main(["figure", "--name", "fig6", "--dataset", "gnutella",
                          "--size", "30", "--thetas", "0.8"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "rem la=1" in captured

    def test_anonymize_command_progress_and_timeout(self, capsys):
        exit_code = main(["anonymize", "--dataset", "gnutella", "--size", "40",
                          "--theta", "0.6", "--seed", "0", "--timeout", "60",
                          "--progress"])
        assert exit_code == 0
        assert "distortion=" in capsys.readouterr().out

    def test_batch_command_runs_job_spec(self, tmp_path, capsys):
        spec = {
            "defaults": {"dataset": "gnutella", "sample_size": 30,
                         "theta": 0.6, "seed": 0},
            "max_workers": 0,
            "jobs": [
                {"algorithm": "rem", "request_id": "first"},
                {"algorithm": "gaded-max", "request_id": "second"},
            ],
        }
        spec_path = tmp_path / "jobs.json"
        spec_path.write_text(json.dumps(spec))
        output = tmp_path / "results.json"
        exit_code = main(["batch", str(spec_path), "--output", str(output)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "[first]" in captured and "[second]" in captured
        results = json.loads(output.read_text())
        assert [r["request"]["request_id"] for r in results] == ["first", "second"]
        assert all(r["error"] is None for r in results)

    def test_batch_command_reports_failures_with_exit_code(self, tmp_path, capsys):
        spec = [
            {"algorithm": "rem", "dataset": "gnutella", "sample_size": 30,
             "theta": 0.6, "seed": 0},
            {"algorithm": "no-such-algorithm", "dataset": "gnutella",
             "sample_size": 30},
        ]
        spec_path = tmp_path / "jobs.json"
        spec_path.write_text(json.dumps(spec))
        exit_code = main(["batch", str(spec_path), "--max-workers", "0"])
        captured = capsys.readouterr().out
        assert exit_code == 1
        assert "unknown algorithm" in captured

    @pytest.mark.parametrize("spec,message", [
        (["rem"], "must be an object"),
        ({"jobs": []}, "no jobs"),
        ({"jobs": [{"algorithm": "rem"}], "max_workers": "4"},
         "non-negative integer"),
        ({"jobs": [{"algorithm": "rem"}], "defaults": "x"},
         "'defaults' must be an object"),
        ("just-a-string", "must be a JSON array"),
    ])
    def test_batch_command_rejects_malformed_specs(self, tmp_path, capsys,
                                                   spec, message):
        spec_path = tmp_path / "jobs.json"
        spec_path.write_text(json.dumps(spec))
        exit_code = main(["batch", str(spec_path)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert message in captured.err

    @pytest.mark.parametrize("field,value", (("evaluation_mode", "scratch"),
                                             ("sweep_mode", "independent"),
                                             ("engine", "numpy"),
                                             ("scan_mode", "parallel")))
    def test_batch_spec_with_retired_field_is_rejected(self, tmp_path, capsys,
                                                       field, value):
        spec_path = tmp_path / "jobs.json"
        spec_path.write_text(json.dumps(
            {"defaults": {"dataset": "gnutella", "sample_size": 30},
             "jobs": [{"algorithm": "rem", field: value}]}))
        with pytest.raises(ConfigurationError, match=field):
            _load_batch_spec(str(spec_path))
        assert main(["batch", str(spec_path)]) == 2
        assert f"unknown request field(s) ['{field}']" in \
            capsys.readouterr().err

    def test_batch_command_rejects_invalid_json(self, tmp_path, capsys):
        spec_path = tmp_path / "jobs.json"
        spec_path.write_text("{broken")
        assert main(["batch", str(spec_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_domain_errors_exit_cleanly(self, capsys):
        exit_code = main(["anonymize", "--dataset", "gnutella", "--size", "30",
                          "--algorithm", "gades", "--length", "2"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error: gades only supports L = 1" in captured.err

    def test_figure10_rejects_the_flags_it_does_not_take(self, capsys):
        exit_code = main(["figure", "--name", "fig10", "--dataset", "gnutella",
                          "--size", "30", "-L", "2"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err == "error: figure fig10 does not take --size, -L\n"

    @pytest.mark.parametrize("name,flags,rejected", [
        ("fig6", ["--theta", "0.1"], "--theta"),
        ("fig7", ["-L", "3"], "-L"),
        ("fig7", ["-L", "3", "--theta", "0.1", "--thetas", "0.8"],
         "-L, --theta"),
        ("fig8", ["--theta", "0.1", "-L", "2"], "--theta"),
    ])
    def test_figures_reject_the_flags_they_do_not_take(self, capsys, name,
                                                       flags, rejected):
        exit_code = main(["figure", "--name", name, "--dataset", "enron",
                          "--size", "20"] + flags)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err == \
            f"error: figure {name} does not take {rejected}\n"

    def test_figure_command_chart_mode(self, capsys):
        exit_code = main(["figure", "--name", "fig6", "--dataset", "gnutella",
                          "--size", "30", "--thetas", "0.8", "0.6", "--chart"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 6 — gnutella" in captured
        assert "distortion" in captured
        assert "o rem la=1" in captured


class TestSweepAxes:
    def test_sweep_command_runs_theta_grid(self, capsys):
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "30",
                          "--thetas", "0.8", "0.6", "--no-utility"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "2 runs in 1 group(s) over 1 sample group(s)" in captured

    def test_sweep_command_axis_expands_grid(self, capsys):
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "30",
                          "--thetas", "0.8", "0.6", "--no-utility",
                          "--axis", "l=1,2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "4 runs in 2 group(s) over 1 sample group(s)" in captured
        assert "L=2" in captured

    def test_sweep_command_dataset_axis_splits_sample_groups(self, capsys):
        exit_code = main(["sweep", "--size", "25", "--thetas", "0.8",
                          "--no-utility", "--axis", "dataset=gnutella,google"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "2 runs in 2 group(s) over 2 sample group(s)" in captured

    def test_sweep_command_axis_overrides_flag(self, capsys):
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "25",
                          "--thetas", "0.9", "0.7", "--no-utility",
                          "--axis", "theta=0.8"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "1 runs in 1 group(s)" in captured
        assert "theta=0.80" in captured

    def test_sweep_command_pooled_shm_grid(self, capsys):
        # Default --shared-memory on: the pooled grid runs on the
        # zero-copy plane (θ-groups fan out over one published sample).
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "25",
                          "--thetas", "0.8", "0.6", "--no-utility",
                          "--axis", "l=1,2", "--max-workers", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "4 runs in 2 group(s) over 1 sample group(s)" in captured

    def test_sweep_command_shared_memory_off(self, capsys):
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "25",
                          "--thetas", "0.8", "0.6", "--no-utility",
                          "--axis", "l=1,2", "--max-workers", "2",
                          "--shared-memory", "off"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "4 runs in 2 group(s) over 1 sample group(s)" in captured

    def test_sweep_command_writes_grid_response(self, tmp_path, capsys):
        output = tmp_path / "grid.json"
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "25",
                          "--thetas", "0.8", "--no-utility",
                          "--axis", "size=20,25", "--output", str(output)])
        assert exit_code == 0
        payload = json.loads(output.read_text())
        assert payload["num_sample_groups"] == 2
        assert len(payload["responses"]) == 2

    @pytest.mark.parametrize("axis,message", [
        ("bogus=3", "bad --axis"),
        ("l", "bad --axis"),
        ("l=", "lists no values"),
        ("l=two", "bad --axis value"),
        ("dataset=facebook", "unknown dataset"),
        ("algorithm=typo", "unknown algorithm"),
    ])
    def test_sweep_command_rejects_bad_axes(self, capsys, axis, message):
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "25",
                          "--axis", axis])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert message in captured.err

    def test_sweep_command_rejects_negative_max_workers(self, capsys):
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "25",
                          "--thetas", "0.8", "--max-workers", "-1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == "error: --max-workers must be >= 0, got -1\n"
        assert captured.out == ""

    def test_serve_command_rejects_negative_max_workers(self, tmp_path,
                                                        capsys):
        exit_code = main(["serve", "--port", "0",
                          "--db", str(tmp_path / "runs.db"),
                          "--max-workers", "-1"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err == "error: max_workers must be >= 0, got -1\n"
        assert "listening" not in captured.out

    def test_sweep_command_rejects_repeated_axis(self, capsys):
        exit_code = main(["sweep", "--dataset", "gnutella", "--size", "25",
                          "--axis", "l=1", "--axis", "l=2"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "repeats axis" in captured.err
