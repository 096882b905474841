"""DPL008 (fork-pickle-safety): live handles must not cross process forks."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source
from repro.analysis.runner import _select_rules

from .helpers import lint_fixture, rule_ids

CORE_PATH = "src/repro/core/engine/executors.py"

DPL008 = _select_rules(select=("DPL008",))


def _lint(source: str):
    return lint_source(textwrap.dedent(source), path=CORE_PATH, rules=DPL008)


class TestFlaggedFixture:
    def test_every_unsafe_payload_fires(self):
        violations = lint_fixture("fork_bad.py", CORE_PATH, select=("DPL008",))
        assert rule_ids(violations) == {"DPL008"}
        messages = " ".join(v.message for v in violations)
        # Spec field, spec kwarg value + name, submit arg, pool initargs,
        # WorkerPool setup args, WorkerPool jobs.
        assert "shard_rng" in messages
        assert "rng" in messages
        assert "log_file" in messages
        assert "state_lock" in messages
        assert "shared_mmap" in messages
        assert "corpus_mmap" in messages
        assert "job_file" in messages
        assert len(violations) >= 7


class TestCleanFixture:
    def test_plain_data_and_seed_material_pass(self):
        assert lint_fixture("fork_good.py", CORE_PATH, select=("DPL008",)) == []


class TestBoundaryForms:
    def test_seed_sequences_are_sanctioned(self):
        source = """\
            def submit(pool, spec, seeds, seed_sequence):
                return pool.submit(run, spec, seeds, seed_sequence)
            """
        assert _lint(source) == []

    def test_kwarg_name_alone_is_enough(self):
        # Even an innocuously-named value bound to a hostile kwarg name
        # signals intent to ship a handle.
        source = """\
            def ship(path, material):
                return ShardSourceSpec(path, rng=material)
            """
        violations = _lint(source)
        assert len(violations) == 1

    def test_suffix_match_catches_named_handles(self):
        source = """\
            def ship(path, checkin_mmap):
                return ShardSourceSpec(path, checkin_mmap)
            """
        violations = _lint(source)
        assert len(violations) == 1
        assert "checkin_mmap" in violations[0].message
