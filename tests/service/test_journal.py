"""The durable job journal: replay, torn tails, compaction."""

import pytest

from repro.resilience.errors import CheckpointError
from repro.service.jobs import new_job, transition
from repro.service.journal import JobJournal


def _job(seq, name="j"):
    return new_job(
        seq=seq,
        name=name,
        source="halt",
        policy="untrusted",
        max_cycles=100,
        budget={},
        max_attempts=2,
        now=1.0,
    )


class TestAppendReplay:
    def test_fresh_journal_is_empty(self, tmp_path):
        journal = JobJournal(tmp_path / "j")
        assert journal.replay() == {}
        assert journal.next_seq == 1

    def test_appends_replay_after_reopen(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.replay()
        a, b = _job(journal.next_seq, "a"), None
        journal.append(a)
        b = _job(journal.next_seq, "b")
        journal.append(b)
        journal.close()

        reopened = JobJournal(tmp_path)
        jobs = reopened.replay()
        assert set(jobs) == {a.job_id, b.job_id}
        assert jobs[a.job_id].name == "a"
        assert reopened.next_seq == b.seq + 1

    def test_last_writer_wins_per_job(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.replay()
        record = _job(journal.next_seq)
        journal.append(record)
        transition(record, "running", attempts=1, now=2.0)
        journal.append(record)  # same job id, higher seq
        journal.close()

        jobs = JobJournal(tmp_path).replay()
        assert len(jobs) == 1
        assert jobs[record.job_id].state == "running"
        assert jobs[record.job_id].attempts == 1

    def test_event_engine_record_replays_as_dense(self, tmp_path):
        """A record journaled by a daemon that still had the (since
        removed, bit-identical) event engine resumes on dense."""
        journal = JobJournal(tmp_path)
        journal.replay()
        record = _job(journal.next_seq)
        record.engine = "event"
        journal.append(record)
        journal.close()

        replayed = JobJournal(tmp_path).replay()[record.job_id]
        assert replayed.engine == "dense"
        assert replayed.digest == record.digest

    def test_torn_final_line_is_tolerated(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.replay()
        record = _job(journal.next_seq)
        journal.append(record)
        journal.close()
        # A kill -9 mid-append can only tear the final line.
        with (tmp_path / "jobs.log").open("ab") as handle:
            handle.write(b'{"job_id": "j000')

        jobs = JobJournal(tmp_path).replay()
        assert set(jobs) == {record.job_id}

    def test_corruption_before_valid_final_record_is_fatal(self, tmp_path):
        """Only the *final* non-blank line may be torn: a corrupt line
        followed by a valid fsync'd record is real corruption, and
        tolerating it would silently drop that acknowledged record."""
        journal = JobJournal(tmp_path)
        journal.replay()
        record = _job(journal.next_seq)
        journal.append(record)
        journal.close()
        log = tmp_path / "jobs.log"
        valid_line = log.read_bytes().rstrip(b"\n")
        # Corrupt line at len-2 with a valid, newline-less final line.
        log.write_bytes(b'{"torn mid-append\n' + valid_line)

        with pytest.raises(CheckpointError) as excinfo:
            JobJournal(tmp_path).replay()
        assert excinfo.value.code == "JOURNAL_CORRUPT"

    def test_mid_file_corruption_is_typed_fatal(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.replay()
        journal.append(_job(journal.next_seq))
        journal.close()
        log = tmp_path / "jobs.log"
        log.write_bytes(b"garbage not json\n" + log.read_bytes())

        with pytest.raises(CheckpointError) as excinfo:
            JobJournal(tmp_path).replay()
        assert excinfo.value.code == "JOURNAL_CORRUPT"


class TestCompaction:
    def test_compact_snapshots_and_truncates_log(self, tmp_path):
        journal = JobJournal(tmp_path)
        jobs = journal.replay()
        for name in ("a", "b", "c"):
            record = _job(journal.next_seq, name)
            jobs[record.job_id] = record
            journal.append(record)
        journal.compact(jobs)
        assert (tmp_path / "jobs.snapshot").exists()
        assert (tmp_path / "jobs.log").read_bytes() == b""

        replayed = JobJournal(tmp_path).replay()
        assert {r.name for r in replayed.values()} == {"a", "b", "c"}

    def test_seq_continues_across_compaction_and_reopen(self, tmp_path):
        journal = JobJournal(tmp_path)
        jobs = journal.replay()
        record = _job(journal.next_seq)
        jobs[record.job_id] = record
        journal.append(record)
        high_water = journal.next_seq
        journal.compact(jobs)
        journal.close()

        reopened = JobJournal(tmp_path)
        reopened.replay()
        # Sequence numbers never rewind: new appends order after every
        # journaled record even though the log was truncated.
        assert reopened.next_seq >= high_water

    def test_stale_log_lines_after_snapshot_are_noops(self, tmp_path):
        """An interrupted compaction (snapshot written, log not yet
        truncated) must replay to the identical table."""
        journal = JobJournal(tmp_path)
        jobs = journal.replay()
        record = _job(journal.next_seq)
        jobs[record.job_id] = record
        journal.append(record)
        transition(record, "running", attempts=1, now=2.0)
        journal.append(record)
        log_bytes = (tmp_path / "jobs.log").read_bytes()
        journal.compact(jobs)
        journal.close()
        # Crash model: put the pre-compaction log lines back.
        (tmp_path / "jobs.log").write_bytes(log_bytes)

        replayed = JobJournal(tmp_path).replay()
        assert len(replayed) == 1
        assert replayed[record.job_id].state == "running"
