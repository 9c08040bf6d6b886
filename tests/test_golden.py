"""The committed CLI commands reproduce their stored outputs.

Strings, booleans, integers, stdout, stderr and ``summary.txt`` must match exactly,
floats to a relative 1e-12, and a stored zero must stay exactly zero. See
``golden_outputs.py`` for the stored data and how to regenerate it.
"""

import shutil

import pytest

import golden_outputs as golden


@pytest.mark.parametrize("case", sorted(golden.commands()))
def test_command_matches_golden_outputs(tmp_path, case):
    record = golden.load(case)
    assert record["argv"] == golden.commands()[case]
    code, stdout, stderr, files = golden.run(record["argv"], tmp_path / "out")
    assert code == record["exit"]
    assert stdout == record["stdout"]
    assert stderr == record["stderr"]
    changes = golden.compare(record, files)
    assert {name: change for name, change in changes.items() if not change <= golden.RTOL} == {}


@pytest.mark.parametrize("case", sorted(case for case in golden.commands() if golden.load(case)["exit"] == 0))
def test_report_tables_match_golden_outputs(case):
    # every table a command computes, written or not, matches the stored data
    record = golden.load(case)
    changes = golden.table_changes(record, *golden.report(record["argv"]))
    assert {name: change for name, change in changes.items() if not change <= golden.RTOL} == {}


def test_regeneration_keeps_unmoved_bytes(tmp_path, capsys):
    # with no code change every file is within RTOL of its stored data,
    # even one that sits a rounding step off it, so nothing is rewritten
    copy = tmp_path / "golden"
    shutil.copytree(golden.GOLDEN, copy)
    assert golden.regenerate(golden=copy) == 0
    capsys.readouterr()
    stored = {path.relative_to(golden.GOLDEN): path.read_bytes() for path in golden.GOLDEN.rglob("*") if path.is_file()}
    rewritten = {path.relative_to(copy): path.read_bytes() for path in copy.rglob("*") if path.is_file()}
    assert sorted(rewritten) == sorted(stored)
    assert [name for name in stored if rewritten[name] != stored[name]] == []
