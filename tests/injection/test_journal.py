"""Injection journal: atomic appends, replay, truncation tolerance."""

from __future__ import annotations

import dataclasses
import errno
import json
import os
import re
from pathlib import Path

import pytest

from repro.errors import InjectionError
from repro.injection.campaign import (
    CampaignConfig,
    build_fault_plan,
    prepare_image,
)
from repro.injection.classify import FaultEffect
from repro.injection.components import Component
from repro.injection.identity import program_digest
from repro.injection.journal import (
    JOURNAL_VERSION,
    InjectionJournal,
    InjectionRecord,
    JournalMeta,
    QuarantineRecord,
    read_journal,
)
from repro.injection.parallel import ImageInjector, run_injection_plan
from repro.workloads import get_workload

META = JournalMeta(
    workload="StringSearch",
    machine="scaled-a9",
    faults_per_component=10,
    seed=5,
    cluster_size=1,
    golden_cycles=123_456,
)


def make_record(index=0, component=Component.REGFILE, effect=FaultEffect.MASKED):
    return InjectionRecord(
        component=component,
        index=index,
        bit_index=17 + index,
        cycle=1000 + index,
        effect=effect,
        wall_time=0.25,
    )


class TestAppendAndReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
            journal.record(make_record(1, effect=FaultEffect.SDC))
            journal.record_quarantine(
                QuarantineRecord(Component.DTLB, 3, 99, 555, "worker died")
            )
        meta, records, quarantines = read_journal(path)
        assert meta == META
        assert [r.index for r in records] == [0, 1]
        assert records[1].effect is FaultEffect.SDC
        assert records[0].bit_index == 17 and records[0].cycle == 1000
        assert quarantines[0].component is Component.DTLB
        assert quarantines[0].reason == "worker died"

    def test_every_line_is_one_json_record(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with InjectionJournal.create(path, META) as journal:
            for index in range(5):
                journal.record(make_record(index))
        lines = path.read_text().splitlines()
        assert len(lines) == 6  # meta + 5 records
        assert all(json.loads(line) for line in lines)
        assert json.loads(lines[0])["type"] == "meta"

    def test_completed_is_keyed_by_fault_index(self, tmp_path):
        journal = InjectionJournal.create(tmp_path / "j.jsonl", META)
        journal.record(make_record(4))
        journal.record(make_record(2, component=Component.DTLB))
        completed = journal.completed(Component.REGFILE)
        assert set(completed) == {4}
        assert set(journal.completed(Component.DTLB)) == {2}
        assert journal.completed(Component.L2) == {}
        journal.close()

    def test_create_truncates_previous_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
        with InjectionJournal.create(path, META):
            pass
        _meta, records, _q = read_journal(path)
        assert records == []


class TestLifetimeEvents:
    EVENTS = (
        ("flip", 1000, "L1D"),
        ("write-over", 1400, "l1d"),
        ("outcome", 5000, "MASKED"),
    )
    TRACE = ("1234: 0x00010000 add r1, r2, r3", "1235: 0x00010004 syscall")

    def test_record_round_trips_events_and_trace(self):
        record = InjectionRecord(
            component=Component.L1D,
            index=2,
            bit_index=40,
            cycle=1000,
            effect=FaultEffect.MASKED,
            wall_time=0.25,
            events=self.EVENTS,
            trace=self.TRACE,
        )
        clone = InjectionRecord.from_line(record.to_line())
        assert clone == record
        assert clone.events == self.EVENTS
        assert clone.trace == self.TRACE

    def test_eventless_record_emits_no_extra_keys(self):
        """Campaigns with events off write the same lines as before."""
        line = make_record(0).to_line()
        assert "events" not in line
        assert "trace" not in line

    def test_legacy_lines_default_to_empty(self):
        """Journals written before the observability layer replay cleanly."""
        record = make_record(3)
        line = record.to_line()
        line.pop("events", None)
        line.pop("trace", None)
        replayed = InjectionRecord.from_line(line)
        assert replayed.events == ()
        assert replayed.trace == ()
        assert replayed == record

    def test_events_survive_the_file_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        record = InjectionRecord(
            component=Component.REGFILE,
            index=0,
            bit_index=17,
            cycle=1000,
            effect=FaultEffect.MASKED,
            wall_time=0.25,
            events=self.EVENTS,
        )
        with InjectionJournal.create(path, META) as journal:
            journal.record(record)
            journal.record(make_record(1))  # eventless in the same file
        _meta, records, _q = read_journal(path)
        assert records[0].events == self.EVENTS
        assert records[1].events == ()


class TestResume:
    def test_resume_replays_records(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
        with InjectionJournal.resume(path, META) as journal:
            assert [r.index for r in journal.records] == [0]
            journal.record(make_record(1))
        _meta, records, _q = read_journal(path)
        assert [r.index for r in records] == [0, 1]

    def test_resume_rejects_mismatched_meta(self, tmp_path):
        path = tmp_path / "j.jsonl"
        InjectionJournal.create(path, META).close()
        drifted = JournalMeta(
            workload=META.workload,
            machine=META.machine,
            faults_per_component=META.faults_per_component,
            seed=6,  # different seed -> different fault lists
            cluster_size=META.cluster_size,
            golden_cycles=META.golden_cycles,
        )
        with pytest.raises(InjectionError, match="seed"):
            InjectionJournal.resume(path, drifted)

    def test_headers_without_a_program_digest_read_but_never_resume(
        self, tmp_path
    ):
        """Journals written before the header carried the program digest
        still replay (``repro stats``), but no new campaign resumes them."""
        path = tmp_path / "old.jsonl"
        header = META.to_line()
        del header["program_digest"]
        path.write_text(
            json.dumps(header) + "\n" + json.dumps(make_record(0).to_line()) + "\n"
        )
        meta, records, _q = read_journal(path)
        assert meta == META and meta.program_digest == ""
        assert [r.index for r in records] == [0]
        active = dataclasses.replace(META, program_digest="ab" * 16)
        with pytest.raises(InjectionError, match="program_digest"):
            InjectionJournal.resume(path, active)

    @pytest.mark.parametrize("kind", ["injection", "quarantine"])
    @pytest.mark.parametrize("index", [8, 9, -1])
    def test_windowed_index_outside_the_cap_is_refused(
        self, tmp_path, kind, index
    ):
        """An adaptive journal's header carries the ``max_faults`` cap as
        ``faults_per_component``; every window the campaign schedules lies
        below it, so a line at or past the cap (or negative) is
        corruption, refused on read rather than skipped by replay."""
        config = CampaignConfig(target_margin=0.1, min_faults=4, max_faults=8)
        meta = config.journal_meta("StringSearch", "ab" * 16, 123_456)
        assert meta.faults_per_component == 8
        path = tmp_path / "adaptive.jsonl"
        stray = make_record(index)
        with InjectionJournal.create(path, meta) as journal:
            journal.record(make_record(7))
            if kind == "injection":
                journal.record(stray)
            else:
                journal.record_quarantine(
                    QuarantineRecord(
                        stray.component, index, stray.bit_index, stray.cycle,
                        "worker died",
                    )
                )
        with pytest.raises(
            InjectionError,
            match=rf"line 3 records fault index {index} .*beyond the plan of 8",
        ):
            read_journal(path)
        with pytest.raises(InjectionError, match="beyond the plan"):
            InjectionJournal.resume(path, meta)

    def test_open_creates_then_resumes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.open(path, META) as journal:
            journal.record(make_record(0))
        with InjectionJournal.open(path, META) as journal:
            assert len(journal.records) == 1


class TestTruncationTolerance:
    """A SIGKILL mid-append leaves a partial final line - never worse."""

    def test_partial_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
        with open(path, "ab") as handle:
            handle.write(b'{"type":"injection","compo')
        _meta, records, _q = read_journal(path)
        assert [r.index for r in records] == [0]

    def test_resume_after_truncation_appends_cleanly(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
        with open(path, "ab") as handle:
            handle.write(b'{"type":"inject')
        with InjectionJournal.resume(path, META) as journal:
            journal.record(make_record(1))
        _meta, records, _q = read_journal(path)
        assert [r.index for r in records] == [0, 1]

    def test_complete_tail_missing_newline_is_kept(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
        raw = path.read_bytes()
        path.write_bytes(raw.rstrip(b"\n"))  # kill after write, before \n
        with InjectionJournal.resume(path, META) as journal:
            assert [r.index for r in journal.records] == [0]
            journal.record(make_record(1))
        _meta, records, _q = read_journal(path)
        assert [r.index for r in records] == [0, 1]

    @pytest.mark.parametrize(
        "number, edit, message",
        [
            (2, lambda line: line.replace('"type":"injection"', '"ty]]]'),
             "line 2 is corrupt"),
            (2, lambda line: "[]", "line 2 is malformed"),
            (1, lambda line: "[]", "line 1 is malformed"),
            (1, lambda line: json.dumps(
                {k: v for k, v in json.loads(line).items() if k != "seed"}),
             "line 1 is malformed"),
            (2, lambda line: json.dumps({**json.loads(line), "events": 5}),
             "line 2 is malformed"),
            (2, lambda line: json.dumps({**json.loads(line), "site": [1]}),
             "line 2 is malformed"),
            (2, lambda line: json.dumps({**json.loads(line), "saved": 1.5}),
             "line 2 is malformed"),
        ],
        ids=[
            "garbled", "record-array", "meta-array", "meta-no-seed",
            "events-int", "site-short", "saved-float",
        ],
    )
    def test_interior_corruption_is_rejected(self, tmp_path, number, edit, message):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
        lines = path.read_text().splitlines()
        lines[number - 1] = edit(lines[number - 1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InjectionError, match=message):
            read_journal(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(b"")
        with pytest.raises(InjectionError, match="empty"):
            read_journal(path)

    def test_missing_meta_is_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type":"injection"}\n')
        with pytest.raises(InjectionError, match="meta"):
            read_journal(path)


class TestAppendRobustness:
    """Regressions for the short-write and repair-ordering bugs.

    ``os.write`` may write fewer bytes than asked (signal interruption,
    a nearly full disk); the append loop must keep writing until every
    byte is down, and a genuinely full disk must raise instead of
    silently journaling a torn record.
    """

    def test_short_writes_are_completed(self, tmp_path, monkeypatch):
        path = tmp_path / "j.jsonl"
        journal = InjectionJournal.create(path, META)
        real_write = os.write

        def drip(fd, data):
            return real_write(fd, bytes(data)[:3])  # at most 3 bytes per call

        monkeypatch.setattr(os, "write", drip)
        journal.record(make_record(0))
        monkeypatch.undo()
        journal.close()
        _meta, records, _q = read_journal(path)
        assert [r.index for r in records] == [0]
        assert path.read_bytes().endswith(b"\n")

    def test_disk_full_raises_instead_of_tearing_silently(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "j.jsonl"
        journal = InjectionJournal.create(path, META)
        real_write = os.write
        budget = [10]  # bytes until the fake disk fills up

        def filling_disk(fd, data):
            if budget[0] <= 0:
                raise OSError(errno.ENOSPC, "No space left on device")
            count = min(budget[0], len(bytes(data)))
            budget[0] -= count
            return real_write(fd, bytes(data)[:count])

        monkeypatch.setattr(os, "write", filling_disk)
        with pytest.raises(InjectionError, match="disk full"):
            journal.record(make_record(0))
        monkeypatch.undo()
        # The torn record was never added to the in-memory view, and the
        # partial tail is exactly what the next resume repairs away.
        assert journal.records == []
        journal.close()
        with InjectionJournal.resume(path, META) as resumed:
            assert resumed.records == []

    def test_non_enospc_oserror_propagates(self, tmp_path, monkeypatch):
        journal = InjectionJournal.create(tmp_path / "j.jsonl", META)

        def broken(fd, data):
            raise OSError(errno.EIO, "I/O error")

        monkeypatch.setattr(os, "write", broken)
        with pytest.raises(OSError, match="I/O error"):
            journal.record(make_record(0))
        monkeypatch.undo()
        journal.close()


class TestResumeRepairOrdering:
    """Resume must repair the torn tail *before* replaying the file, so
    the in-memory record list and the on-disk journal are two views of
    one byte sequence - never two independent parses of a torn one."""

    def test_resumed_memory_matches_reread_disk_after_torn_tail(
        self, tmp_path
    ):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
            journal.record(make_record(1, effect=FaultEffect.SDC))
        with open(path, "ab") as handle:
            handle.write(b'{"type":"injection","component":"REGF')
        with InjectionJournal.resume(path, META) as resumed:
            in_memory = list(resumed.records)
            resumed.record(make_record(2))
        _meta, on_disk, _q = read_journal(path)
        assert [r.index for r in in_memory] == [0, 1]
        assert on_disk[: len(in_memory)] == in_memory
        assert [r.index for r in on_disk] == [0, 1, 2]

    def test_repair_happens_even_when_meta_validation_fails(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with InjectionJournal.create(path, META) as journal:
            journal.record(make_record(0))
        with open(path, "ab") as handle:
            handle.write(b'{"torn')
        import dataclasses

        other = dataclasses.replace(META, seed=META.seed + 1)
        with pytest.raises(InjectionError, match="different campaign"):
            InjectionJournal.resume(path, other)
        # The tail was still normalized: a later resume with the right
        # meta starts from a clean file.
        assert path.read_bytes().endswith(b"\n")
        with InjectionJournal.resume(path, META) as resumed:
            assert [r.index for r in resumed.records] == [0]


class TestPinnedJournalBytes:
    """The journal lines a live campaign writes are pinned byte for byte
    (wall-clock times aside) against ``data/crc32_journal.jsonl``.

    The fixture is a serial CRC32 plan, 4 faults per component at seed 1,
    with lifetime events on and fault 1 of REGFILE forced into
    quarantine.  Regenerate it only for a deliberate format change, which
    also bumps ``JOURNAL_VERSION``, or for an engine change that moves how
    runs end; that may change a line's ``ended``, ``events`` and
    ``saved``, never its ``effect``, ``site``, ``bit`` or ``cycle``.
    """

    FIXTURE = Path(__file__).parent / "data" / "crc32_journal.jsonl"

    @staticmethod
    def _without_wall(text: str) -> list[str]:
        return [
            re.sub(r'"wall":[^,}]*', '"wall":0', line)
            for line in text.splitlines()
        ]

    def test_live_campaign_writes_the_pinned_lines(self, tmp_path, monkeypatch):
        workload = get_workload("CRC32")
        config = CampaignConfig(faults_per_component=4, seed=1)
        golden, image = prepare_image(workload, config)
        plan = build_fault_plan(config, golden.cycles, tuple(Component))
        target = plan[Component.REGFILE][1]
        real = ImageInjector.run_fault_ex

        def forced(self, fault):
            if fault == target:
                raise RuntimeError("forced quarantine")
            return real(self, fault)

        monkeypatch.setattr(ImageInjector, "run_fault_ex", forced)
        meta = config.journal_meta(
            workload.name,
            program_digest(workload, config.machine),
            golden.cycles,
        )
        path = tmp_path / "crc32.jsonl"
        with InjectionJournal.create(path, meta) as journal:
            run_injection_plan(image, plan, journal=journal, max_retries=0)
        assert meta.version == JOURNAL_VERSION == 1
        assert self._without_wall(path.read_text()) == self._without_wall(
            self.FIXTURE.read_text()
        )
