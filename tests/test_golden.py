"""The committed CLI commands reproduce their stored outputs.

Strings, booleans, integers, stdout and ``summary.txt`` must match exactly,
floats to a relative 1e-12, and a stored zero must stay exactly zero. See
``golden_outputs.py`` for the stored data and how to regenerate it.
"""

import pytest

import golden_outputs as golden


@pytest.mark.parametrize("case", sorted(golden.commands()))
def test_command_matches_golden_outputs(tmp_path, case):
    record = golden.load(case)
    assert record["argv"] == golden.commands()[case]
    code, stdout, files = golden.run(record["argv"], tmp_path / "out")
    assert code == record["exit"]
    assert stdout == record["stdout"]
    changes = golden.compare(record, files)
    assert {name: change for name, change in changes.items() if not change <= golden.RTOL} == {}
