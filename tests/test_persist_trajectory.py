"""Unit tests for ``benchmarks/persist_trajectory.py`` on a fake dump."""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "persist_trajectory.py"


@pytest.fixture(scope="module")
def persist():
    spec = importlib.util.spec_from_file_location("persist_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stats(mean, median, low, iqr, rounds):
    return {"mean": mean, "median": median, "min": low, "iqr": iqr,
            "rounds": rounds, "max": mean * 2, "stddev": 0.1}


FAKE_DUMP = {
    "machine_info": {"python_version": "3.12.1", "machine": "x86_64",
                     "system": "Linux"},
    "benchmarks": [
        {"name": "bench_b", "group": None,
         "fullname": "benchmarks/bench_grid_cache.py::bench_b",
         "stats": _stats(0.25, 0.2, 0.1, 0.05, 5)},
        {"name": "bench_a", "group": "Edge Removal",
         "fullname": "benchmarks/bench_x.py::bench_a",
         "stats": _stats(1.0000004, 0.9, 0.8, 0.0, 1)},
    ],
}


class TestCondense:
    def test_records_spread_statistics_per_benchmark(self, persist):
        entry = persist.condense(FAKE_DUMP, 12, commit="abc123")
        assert entry["benchmarks"] == [
            {"name": "bench_a", "group": "Edge Removal", "seconds": 1.0,
             "median": 0.9, "min": 0.8, "iqr": 0.0, "rounds": 1},
            {"name": "bench_b", "group": "bench_grid_cache", "seconds": 0.25,
             "median": 0.2, "min": 0.1, "iqr": 0.05, "rounds": 5},
        ]

    def test_records_host_and_commit(self, persist):
        entry = persist.condense(dict(FAKE_DUMP, _smoke=True), 12, commit="abc123")
        assert entry["pr"] == 12
        assert entry["env"] == {"python": "3.12.1", "machine": "x86_64",
                                "system": "Linux", "smoke": True,
                                "cpu_count": os.cpu_count(), "commit": "abc123"}

    def test_commit_defaults_to_null(self, persist):
        assert persist.condense(FAKE_DUMP, 12)["env"]["commit"] is None


class TestGitCommit:
    def test_null_outside_a_checkout(self, persist, tmp_path):
        assert persist.git_commit(str(tmp_path)) is None

    def test_missing_directory_is_null(self, persist, tmp_path):
        assert persist.git_commit(str(tmp_path / "absent")) is None


def test_main_writes_the_trajectory_file(persist, tmp_path, capsys):
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps(FAKE_DUMP))
    output = tmp_path / "BENCH_12.json"
    assert persist.main([str(dump), "--pr", "12", "--smoke",
                         "--output", str(output)]) == 0
    entry = json.loads(output.read_text())
    assert entry["env"]["smoke"] is True
    assert entry["env"]["cpu_count"] == os.cpu_count()
    commit = entry["env"]["commit"]
    assert commit is None or len(commit) == 40
    assert [bench["name"] for bench in entry["benchmarks"]] == ["bench_a", "bench_b"]
    assert "2 benchmarks" in capsys.readouterr().out


CHANGELOG = """\
- PR 2 (multi_layer_refactor): an entry that mentions PR 40 in passing.
- **PR 11 (benchmark definition)**: a bold entry.
- **PR 11 fix (benchmark refused)**: a fix to an earlier entry.
- PR 9 (perf_opt): entries are not kept in order.
"""


class TestPrFromChanges:
    def test_highest_entry_wins_and_mentions_do_not_count(self, persist,
                                                          tmp_path):
        changes = tmp_path / "CHANGES.md"
        changes.write_text(CHANGELOG, encoding="utf-8")
        assert persist.pr_from_changes(str(changes)) == 11

    def test_no_entry_is_an_error(self, persist, tmp_path):
        changes = tmp_path / "CHANGES.md"
        changes.write_text("nothing here, not even PR 3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="no 'PR <n>' entry"):
            persist.pr_from_changes(str(changes))

    def test_repository_changelog_names_a_pr(self, persist):
        assert persist.pr_from_changes(persist.CHANGES) >= 15


def test_main_derives_the_pr_and_fills_the_output_name(persist, tmp_path,
                                                       monkeypatch, capsys):
    changes = tmp_path / "CHANGES.md"
    changes.write_text(CHANGELOG, encoding="utf-8")
    monkeypatch.setattr(persist, "CHANGES", str(changes))
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps(FAKE_DUMP))
    pattern = str(tmp_path / "BENCH_{pr}.ci.json")
    assert persist.main([str(dump), "--smoke", "--output", pattern]) == 0
    entry = json.loads((tmp_path / "BENCH_11.ci.json").read_text())
    assert entry["pr"] == 11
    assert "BENCH_11.ci.json" in capsys.readouterr().out
    # An explicit --pr still wins over the changelog.
    assert persist.main([str(dump), "--pr", "7", "--output", pattern]) == 0
    assert json.loads((tmp_path / "BENCH_7.ci.json").read_text())["pr"] == 7
