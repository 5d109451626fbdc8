"""Golden corpus: CLI output must stay byte-identical on seeded problem files.

The corpus lives in ``tests/golden`` and is regenerated by
``tests/golden/make_golden.py`` only when an output change is intended.
"""

import json
from pathlib import Path

import pytest

from ordext.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


@pytest.mark.parametrize("entry", MANIFEST, ids=[entry["id"] for entry in MANIFEST])
def test_golden_output(entry, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = [arg.replace("{cases}", str(GOLDEN / "cases")) for arg in entry["argv"]]
    code = main(argv)
    out, err = capsys.readouterr()
    expected = GOLDEN / "expected" / entry["id"]
    assert code == entry["exit"]
    assert out.encode() == Path(f"{expected}.stdout").read_bytes()
    assert err.encode() == Path(f"{expected}.stderr").read_bytes()
    grid = Path(f"{expected}.csv")
    if grid.exists():
        assert (tmp_path / "grid.csv").read_bytes() == grid.read_bytes()
    else:
        assert not (tmp_path / "grid.csv").exists()


def test_corpus_covers_every_command():
    commands = {entry["argv"][0] for entry in MANIFEST}
    assert commands == {"check", "extend", "regions", "grid"}
    assert {entry["exit"] for entry in MANIFEST} == {0, 1}
