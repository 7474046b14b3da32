"""CLI smoke tests."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.microarch.system import System


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_inject_defaults(self):
        args = build_parser().parse_args(["inject", "CRC32"])
        assert args.faults == 50

    def test_beam_hours(self):
        args = build_parser().parse_args(["beam", "CRC32", "--hours", "12"])
        assert args.hours == 12.0

    def test_report_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "fig99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "CRC32" in out and "Susan S" in out

    def test_run(self, capsys):
        assert main(["run", "Susan C"]) == 0
        out = capsys.readouterr().out
        assert "matches oracle" in out

    def test_run_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["run", "NotABenchmark"])

    def test_disasm(self, capsys):
        assert main(["disasm", "StringSearch"]) == 0
        out = capsys.readouterr().out
        assert "0x00010000:" in out
        assert "syscall" in out

    def test_report_single_figure_from_cache(self, capsys):
        """`report fig10` renders from the shipped campaign cache."""
        from pathlib import Path

        from repro.injection.campaign import CampaignConfig, default_cache_dir
        from repro.workloads import get_workload

        key = CampaignConfig(faults_per_component=100).cache_key(
            get_workload("CRC32")
        )
        if not (default_cache_dir() / f"{key}.json").exists():
            pytest.skip("shipped campaign cache absent")
        assert main(["report", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out


class TestObservabilityFlags:
    def test_parser_accepts_observability_flags(self):
        args = build_parser().parse_args([
            "inject", "CRC32", "--no-events", "--trace-on-crash", "5",
            "--metrics", "m.json",
        ])
        assert args.no_events is True
        assert args.trace_on_crash == 5
        assert args.metrics == "m.json"

    def test_parser_accepts_run_trace_and_stats(self):
        args = build_parser().parse_args(["run", "CRC32", "--trace", "8"])
        assert args.trace == 8
        args = build_parser().parse_args(
            ["stats", "runs", "--metrics", "s.json"]
        )
        assert args.journal == "runs"
        assert args.metrics == "s.json"

    def test_run_with_trace_prints_instruction_tail(self, capsys):
        assert main(["run", "StringSearch", "--trace", "3"]) == 0
        out = capsys.readouterr().out
        assert "trace   : last 3 instruction(s)" in out

    def test_stats_rejects_missing_or_empty_journal(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope")]) == 2
        assert "does not exist" in capsys.readouterr().err
        assert main(["stats", str(tmp_path)]) == 2
        assert "no *.jsonl" in capsys.readouterr().err

    def test_stats_rebuilds_propagation_from_journal(
        self, tmp_path, monkeypatch, capsys
    ):
        """Acceptance flow: journaled campaign -> `stats` replays it and
        the propagation table matches the journal's raw events."""
        from repro.injection.classify import FaultEffect
        from repro.injection.journal import read_journal
        from repro.observability.events import masking_mechanism
        from repro.observability.metrics import read_metrics

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal_dir = tmp_path / "journal"
        assert main([
            "inject", "StringSearch", "-n", "2", "--journal", str(journal_dir),
        ]) == 0
        capsys.readouterr()

        metrics_path = tmp_path / "stats.json"
        assert main([
            "stats", str(journal_dir), "--metrics", str(metrics_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Campaign telemetry" in out
        assert "replayed from journal" in out

        summary = read_metrics(metrics_path)["values"]
        assert summary["completed"] == 12  # 2 faults x 6 components
        assert summary["live_completed"] == 0
        assert summary["events_observed"] == 12

        # The propagation aggregates must equal a recomputation from the
        # journal's raw per-injection events.
        _meta, records, _q = read_journal(next(journal_dir.glob("*.jsonl")))
        expected: dict = {}
        for record in records:
            assert record.events, "lifetime events are on by default"
            if record.effect is FaultEffect.MASKED:
                tally = expected.setdefault(record.component.name, {})
                mechanism = masking_mechanism(record.events, record.site)
                tally[mechanism] = tally.get(mechanism, 0) + 1
        got = {
            name: entry["masked_mechanisms"]
            for name, entry in summary["propagation"].items()
            if entry["masked_mechanisms"]
        }
        assert got == expected
        if expected:
            assert "Fault propagation" in out

    def test_inject_without_events_prints_no_propagation(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["inject", "StringSearch", "-n", "1", "--no-events"]) == 0
        out = capsys.readouterr().out
        assert "Campaign telemetry" in out
        assert "Fault propagation" not in out

    def test_stats_degrades_gracefully_on_pr2_era_journal(
        self, tmp_path, capsys
    ):
        """Regression: journals written before lifetime events existed
        (no ``ended``/``events``/``trace`` record fields) must replay
        through `stats` with default features and no crash."""
        journal = tmp_path / "fi-legacy.jsonl"
        journal.write_text(
            '{"type":"meta","workload":"CRC32","machine":"cortex-a9-scaled",'
            '"faults_per_component":4,"seed":7,"cluster_size":1,'
            '"golden_cycles":120000,"version":1}\n'
            '{"type":"injection","component":"L1D","index":0,"bit":11,'
            '"cycle":5000,"effect":"MASKED","wall":0.01}\n'
            '{"type":"injection","component":"L1D","index":1,"bit":12,'
            '"cycle":6000,"effect":"SDC","wall":0.01}\n'
            '{"type":"injection","component":"REGFILE","index":0,"bit":3,'
            '"cycle":7000,"effect":"APP_CRASH","wall":0.02}\n'
            '{"type":"quarantine","component":"REGFILE","index":1,"bit":4,'
            '"cycle":8000,"reason":"worker died"}\n'
        )
        assert main(["stats", str(journal)]) == 0
        out = capsys.readouterr().out
        assert "Campaign telemetry" in out
        assert "3 injection(s), 1 quarantined" in out
        # No lifetime events in a PR-2-era journal: the propagation table
        # degrades to the explanatory note instead of crashing.
        assert "predates them" in out

    def test_calibration_table_degrades_on_legacy_diagnostics(self):
        """The calibration report renders "" - never a KeyError - for
        diagnostics shapes that predate learned sampling."""
        from repro.analysis.report import calibration_table

        legacy = {
            "strata": {"L1D": {"widths": {"AVF": 0.1}, "avf": 0.2}},
            "target_margin": 0.05,
        }
        assert calibration_table(legacy) == ""
        assert calibration_table({"strata": None}) == ""
        assert calibration_table({}) == ""


class TestInjectResilienceFlags:
    def test_parser_accepts_journal_flags(self):
        args = build_parser().parse_args([
            "inject", "CRC32", "--journal", "j", "--resume",
            "--timeout", "2.5", "--retries", "1", "-j", "2",
        ])
        assert args.journal == "j"
        assert args.resume is True
        assert args.timeout == 2.5
        assert args.retries == 1
        assert args.jobs == 2

    def test_resume_requires_journal(self, capsys):
        assert main(["inject", "CRC32", "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_parser_accepts_adaptive_flags(self):
        args = build_parser().parse_args([
            "inject", "CRC32", "--target-margin", "0.02",
            "--confidence", "0.95", "--batch-size", "25",
            "--min-faults", "10", "--max-faults", "500",
        ])
        assert args.target_margin == 0.02
        assert args.confidence == 0.95
        assert args.batch_size == 25
        assert args.min_faults == 10
        assert args.max_faults == 500

    def test_adaptive_defaults(self):
        args = build_parser().parse_args(["inject", "CRC32"])
        assert args.target_margin is None
        assert args.confidence == 0.99
        assert args.batch_size == 50
        assert args.min_faults == 20
        assert args.max_faults == 1000

    def test_confidence_must_be_a_supported_level(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["inject", "CRC32", "--confidence", "0.42"]
            )

    def test_parser_accepts_learned_sampling_flags(self):
        args = build_parser().parse_args(
            ["inject", "CRC32", "--target-margin", "0.1", "--learned-sampling"]
        )
        assert args.learned_sampling is True
        args = build_parser().parse_args(
            ["inject", "CRC32", "--no-learned-sampling"]
        )
        assert args.learned_sampling is False
        assert build_parser().parse_args(
            ["inject", "CRC32"]
        ).learned_sampling is False

    def test_learned_sampling_requires_target_margin(self, capsys):
        assert main(["inject", "CRC32", "--learned-sampling"]) == 2
        assert "--target-margin" in capsys.readouterr().err

    def test_learned_sampling_rejects_fabric(self, capsys):
        assert main([
            "inject", "CRC32", "--learned-sampling",
            "--target-margin", "0.1", "--fabric", "http://localhost:1",
        ]) == 2
        err = capsys.readouterr().err
        assert "fabric" in err

    def test_adaptive_inject_prints_achieved_margins(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main([
            "inject", "StringSearch", "--target-margin", "0.4",
            "--min-faults", "4", "--max-faults", "8", "--batch-size", "12",
        ]) == 0
        out = capsys.readouterr().out
        assert "adaptive to +/-40%" in out
        assert "Adaptive campaign: achieved margins" in out
        assert "Campaign telemetry" in out

    def test_adaptive_journaled_inject_and_forced_resume(
        self, tmp_path, monkeypatch, capsys
    ):
        """Acceptance flow: `inject --target-margin ... --resume` replays
        a journaled adaptive campaign and continues without re-running the
        journaled injections (here: nothing is left, so the journal stays
        byte-identical)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal_dir = tmp_path / "journal"
        flags = [
            "inject", "StringSearch", "--target-margin", "0.4",
            "--min-faults", "4", "--max-faults", "8",
            "--journal", str(journal_dir),
        ]
        assert main(flags) == 0
        capsys.readouterr()
        journals = list(journal_dir.glob("*.jsonl"))
        assert len(journals) == 1
        assert "adapt" in journals[0].name  # adaptive cache key, not fixed
        before = journals[0].read_text()

        for cached in (tmp_path / "cache").glob("*.json"):
            cached.unlink()
        assert main(flags + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "Adaptive campaign: achieved margins" in out
        assert journals[0].read_text() == before

    def test_journaled_inject_and_forced_resume(self, tmp_path, monkeypatch, capsys):
        """CI smoke: a tiny journaled campaign, then a forced resume that
        replays every injection instead of re-simulating."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        journal_dir = tmp_path / "journal"
        assert main([
            "inject", "StringSearch", "-n", "2", "--journal", str(journal_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "Campaign telemetry" in out
        journals = list(journal_dir.glob("*.jsonl"))
        assert len(journals) == 1
        before = journals[0].read_text()
        assert before.count('"injection"') == 12  # 2 faults x 6 components

        # Drop the cache so the resume actually exercises the journal.
        for cached in (tmp_path / "cache").glob("*.json"):
            cached.unlink()
        assert main([
            "inject", "StringSearch", "-n", "2",
            "--journal", str(journal_dir), "--resume",
        ]) == 0
        out = capsys.readouterr().out
        assert "Campaign telemetry" in out
        assert "replayed" in out
        # Nothing new was simulated: the journal is byte-identical.
        assert journals[0].read_text() == before


class TestInvalidValues:
    """Invalid values exit 2 with one error line before any machine is
    built, so nothing runs and nothing is cached."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["inject", "CRC32", "-n", "0"],
             "faults_per_component must be positive"),
            (["inject", "CRC32", "--digest-probes", "-3"],
             "digest_probes must not be negative"),
            (["inject", "CRC32", "-j", "-2"], "jobs must not be negative"),
            (["inject", "CRC32", "--target-margin", "0.1", "--min-faults", "0"],
             "need 0 < min_faults <= max_faults (got 0/1000)"),
            (["beam", "CRC32", "--hours", "-5"], "beam_hours must be positive"),
        ],
        ids=["faults", "digest-probes", "jobs", "min-faults", "beam-hours"],
    )
    def test_exits_2_before_any_system_is_built(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        built = []
        init = System.__init__

        def spy(system, *args, **kwargs):
            built.append(system)
            init(system, *args, **kwargs)

        monkeypatch.setattr(System, "__init__", spy)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == []
        assert list(tmp_path.iterdir()) == []


class TestInjectProfile:
    def test_adaptive_profile_prints_the_same_rows(
        self, tmp_path, monkeypatch, capsys
    ):
        """``--profile`` works with ``--target-margin``: it adds the
        profile and changes no reported row."""
        flags = [
            "inject", "CRC32", "--target-margin", "0.3",
            "--min-faults", "5", "--max-faults", "10", "--batch-size", "6",
        ]

        def rows(text: str) -> list[str]:
            return [
                line for line in text.splitlines()
                if " AVF " in line or "predicted FIT" in line
            ]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain"))
        assert main(flags) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "profiled"))
        assert main(flags + ["--profile"]) == 0
        profiled = capsys.readouterr().out
        assert len(rows(plain)) == 7
        assert rows(profiled) == rows(plain)
        assert "execution profile:" in profiled
        assert "execution profile:" not in plain
        # A profile run bypasses the result cache in both directions.
        assert not (tmp_path / "profiled").exists()


class TestClosedPipe:
    """A reader that stops early (``repro ... | head -1``) ends the command
    quietly: exit status 1, nothing on stderr."""

    def test_reader_closing_after_one_line(self):
        fcntl = pytest.importorskip("fcntl")
        if not hasattr(fcntl, "F_SETPIPE_SZ"):
            pytest.skip("needs a resizable pipe (Linux)")
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        read_fd, write_fd = os.pipe()
        # A one-page pipe holds less than the disassembly (about 8 kB), so
        # the command is still writing when the reader goes away.
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "disasm", "Rijndael E"],
            stdout=write_fd,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as reader:
            first = reader.readline()
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait(timeout=60) == 1
        assert first.strip()
        assert "Traceback" not in stderr
        assert stderr == ""
