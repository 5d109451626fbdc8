"""Golden corpus: CLI output must stay byte-identical on seeded problem files.

The corpus lives in ``tests/golden`` and is regenerated by
``tests/golden/make_golden.py`` only when an output change is intended.
Each entry runs through its ``run_command`` and must give the exit code,
stdout, stderr and grid CSV (or no CSV) of ``expected/``.
"""

import pytest

from golden.make_golden import expected_result, load_manifest, run_command

MANIFEST = load_manifest()


@pytest.mark.parametrize("entry", MANIFEST, ids=[entry["id"] for entry in MANIFEST])
def test_golden_output(entry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_command(entry["argv"]) == expected_result(entry)


def test_corpus_covers_every_command():
    commands = {entry["argv"][0] for entry in MANIFEST}
    assert commands == {"check", "extend", "regions", "grid"}
    assert {entry["exit"] for entry in MANIFEST} == {0, 1}
