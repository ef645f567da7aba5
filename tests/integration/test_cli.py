"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main


SMALL = ["--regions", "256", "--lines-per-region", "4"]
TINY = ["--regions", "64", "--lines-per-region", "2"]


class TestSubcommands:
    def test_analyze(self, capsys):
        assert main(["analyze", "--p", "0.1", "--q", "50"]) == 0
        out = capsys.readouterr().out
        assert "max-we" in out
        assert "0.381" in out

    def test_simulate_default(self, capsys):
        assert main(["simulate", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "lifetime:" in out
        assert "Max-WE" in out

    def test_simulate_bpa_wawl(self, capsys):
        assert main(["simulate", *SMALL, "--attack", "bpa", "--wearlevel", "wawl"]) == 0
        out = capsys.readouterr().out
        assert "BPA" in out

    def test_simulate_every_sparing_scheme(self, capsys):
        for sparing in ("none", "pcd", "ps", "ps-worst", "max-we"):
            assert main(["simulate", *SMALL, "--sparing", sparing]) == 0

    def test_sweep_spare(self, capsys):
        assert main(["sweep-spare", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "50%" in out

    def test_sweep_swr(self, capsys):
        assert main(["sweep-swr", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "wawl" in out

    def test_compare_uaa(self, capsys):
        assert main(["compare-uaa", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "no-protection" in out
        assert "improvement" in out

    def test_compare_bpa(self, capsys):
        assert main(["compare-bpa", *SMALL]) == 0
        out = capsys.readouterr().out
        assert "gmean" in out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        out = capsys.readouterr().out
        assert "0.16 MB" in out
        assert "1.10 MB" in out

    def test_report_to_stdout(self, capsys):
        assert main(["report", "--regions", "64", "--lines-per-region", "2"]) == 0
        out = capsys.readouterr().out
        assert "# Max-WE reproduction report" in out

    def test_trace_record_classify_replay_loop(self, capsys, tmp_path):
        trace_path = tmp_path / "uaa.npz"
        assert (
            main(
                [
                    "record-trace",
                    "--attack",
                    "uaa",
                    "--user-lines",
                    "920",  # 256 regions x 4 lines, minus 26 spare regions
                    "--length",
                    "9200",
                    "--output",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert "recorded 9200 writes" in capsys.readouterr().out

        assert main(["classify-trace", str(trace_path.with_suffix(".npz"))]) == 0
        out = capsys.readouterr().out
        assert "kind:         uniform" in out

        assert (
            main(
                [
                    "replay-trace",
                    str(trace_path.with_suffix(".npz")),
                    "--regions",
                    "256",
                    "--lines-per-region",
                    "4",
                    "--sparing",
                    "max-we",
                ]
            )
            == 0
        )
        assert "lifetime:" in capsys.readouterr().out

    def test_replay_space_mismatch_reports_error(self, capsys, tmp_path):
        trace_path = tmp_path / "small.npz"
        main(
            [
                "record-trace",
                "--user-lines",
                "64",
                "--length",
                "128",
                "--output",
                str(trace_path),
            ]
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "replay-trace",
                    str(trace_path.with_suffix(".npz")),
                    "--regions",
                    "256",
                    "--lines-per-region",
                    "4",
                ]
            )
            == 1
        )
        assert "adjust" in capsys.readouterr().out

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "out.md"
        assert (
            main(
                [
                    "report",
                    "--regions",
                    "64",
                    "--lines-per-region",
                    "2",
                    "--output",
                    str(path),
                ]
            )
            == 0
        )
        assert "written to" in capsys.readouterr().out
        assert "Figure 6" in path.read_text()


class TestArgumentHandling:
    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["destroy"])

    def test_bad_choice_exits(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--attack", "meteor"])

    def test_out_of_range_fraction_fails_at_parse_time(self, capsys):
        for argv in (
            ["simulate", "--p", "1.5"],
            ["simulate", "--swr", "-0.1"],
            ["analyze", "--p", "2"],
            ["overhead", "--swr", "nope"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_zero_line_device_fails_at_parse_time(self):
        for argv in (
            ["sweep-spare", "--regions", "0"],
            ["sweep-spare", "--lines-per-region", "-4"],
            ["simulate", "--q", "0"],
        ):
            with pytest.raises(SystemExit):
                main(argv)

    def test_oversized_device_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep-spare", "--regions", "16384", "--lines-per-region", "2048"])
        assert excinfo.value.code == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_bad_fault_spec_fails_at_parse_time(self):
        with pytest.raises(SystemExit):
            main(["sweep-spare", "--inject-faults", "crash=2"])
        with pytest.raises(SystemExit):
            main(["sweep-spare", "--inject-faults", "explode=0.5"])

    def test_fail_fast_and_keep_going_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["sweep-spare", "--fail-fast", "--keep-going"])


class TestBatchSpecErrors:
    def test_missing_spec_file_is_an_error_not_a_traceback(self, capsys, tmp_path):
        assert main(["batch", str(tmp_path / "absent.json"), "--no-cache"]) == 1
        assert "not found" in capsys.readouterr().out

    def test_invalid_json_is_reported(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{not json")
        assert main(["batch", str(path), "--no-cache"]) == 1
        assert "not valid JSON" in capsys.readouterr().out

    def test_unknown_scheme_is_reported(self, capsys, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([{"label": "x", "sparing": "bogus"}]))
        assert main(["batch", str(path), "--no-cache", *TINY]) == 1
        assert "unknown sparing" in capsys.readouterr().out

    def test_spec_file_on_an_oversized_device_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([{"label": "x", "sparing": "max-we"}]))
        with pytest.raises(SystemExit) as excinfo:
            main(["batch", str(path), "--no-cache", "--regions", "4096",
                  "--lines-per-region", "8192"])
        assert excinfo.value.code == 2
        assert "exceeds the limit" in capsys.readouterr().err

    def test_out_of_range_spec_fraction_is_reported(self, capsys, tmp_path):
        path = tmp_path / "specs.json"
        path.write_text(json.dumps([{"label": "x", "p": 1.5}]))
        assert main(["batch", str(path), "--no-cache", *TINY]) == 1
        assert "must be in [0, 1]" in capsys.readouterr().out


class TestResilienceFlags:
    def test_sweep_with_injected_transients_matches_clean_run(self, capsys):
        assert main(["sweep-spare", *TINY, "--no-cache"]) == 0
        clean = capsys.readouterr().out
        assert (
            main(
                [
                    "sweep-spare",
                    *TINY,
                    "--no-cache",
                    "--retries",
                    "10",
                    "--inject-faults",
                    "transient=0.4,seed=3",
                ]
            )
            == 0
        )
        faulty = capsys.readouterr().out
        assert faulty == clean

    def test_exhausted_retries_exit_1_with_failure_report(self, capsys):
        assert (
            main(
                [
                    "sweep-spare",
                    *TINY,
                    "--no-cache",
                    "--retries",
                    "0",
                    "--inject-faults",
                    "transient=1.0,seed=1",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "task(s) failed" in err
        assert "TransientFault" in err

    def test_resume_reuses_the_derived_checkpoint(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path))
        assert main(["sweep-spare", *TINY, "--no-cache", "--resume"]) == 0
        first = capsys.readouterr().out
        journals = list(tmp_path.glob("sweep-spare-*.jsonl"))
        assert len(journals) == 1
        before = journals[0].read_text()
        assert main(["sweep-spare", *TINY, "--no-cache", "--resume"]) == 0
        second = capsys.readouterr().out
        # Identical table, and the journal gained nothing (all hits).
        assert [l for l in second.splitlines() if "%" in l] == [
            l for l in first.splitlines() if "%" in l
        ]
        assert journals[0].read_text() == before

    def test_explicit_checkpoint_path(self, capsys, tmp_path):
        journal = tmp_path / "my-run.jsonl"
        assert (
            main(
                ["sweep-spare", *TINY, "--no-cache", "--checkpoint", str(journal)]
            )
            == 0
        )
        assert journal.exists()
        assert '"checkpoint_schema"' in journal.read_text().splitlines()[0]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals required")
class TestKillAndResume:
    def test_sigterm_mid_sweep_leaves_a_resumable_journal(self, tmp_path):
        """The issue's second acceptance bar: kill a sweep mid-run, re-run
        with --resume, and only unfinished work is re-executed with a final
        table identical to an uninterrupted run."""
        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(
            os.environ,
            PYTHONPATH=src_root,
            REPRO_CHECKPOINT_DIR=str(tmp_path / "ckpt"),
            REPRO_CACHE_DIR=str(tmp_path / "unused-cache"),
        )
        argv = [
            sys.executable,
            "-m",
            "repro.cli",
            "sweep-spare",
            "--regions",
            "16384",
            "--lines-per-region",
            "16",
            "--paranoia",
            "full",
            "--no-cache",
            "--resume",
        ]
        # Uninterrupted reference run.
        reference = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=600
        )
        assert reference.returncode == 0
        (journal,) = (tmp_path / "ckpt").glob("*.jsonl")
        journal.unlink()

        # Start the same sweep, kill it once the journal shows progress.
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            journals = list((tmp_path / "ckpt").glob("*.jsonl"))
            if journals and len(journals[0].read_text().splitlines()) >= 2:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=600)
        if proc.returncode == 130:  # killed in flight, as intended
            assert "interrupted" in stderr
            assert "--resume" in stderr

        # Resume: finishes the remaining points, table identical.
        resumed = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=600
        )
        assert resumed.returncode == 0

        def table(text):
            return [line for line in text.splitlines() if "%" in line]

        assert table(resumed.stdout) == table(reference.stdout)
