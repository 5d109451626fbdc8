"""Replay the golden manifest through the installed ``ordext`` console script.

Usage (from any directory, with ``ordext`` on ``PATH``)::

    python3 tests/golden/replay.py

Every entry of ``manifest.json`` runs as a child process, in a scratch
directory, by the ``run_command`` that ``tests/test_golden.py`` runs in
process.  Its exit code, stdout, stderr and grid CSV bytes (or the absence
of a CSV) must equal those of ``expected/``.  The script prints each entry
that differs, with the parts that differ, then how many entries matched, and
exits 1 when any entry differs.  Stdlib only; pytest does not collect it.
"""

from __future__ import annotations

import os
import sys
import tempfile

from make_golden import expected_result, load_manifest, run_command

PARTS = ("exit code", "stdout", "stderr", "grid CSV")


def main() -> int:
    manifest = load_manifest()
    failed = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # grid writes its CSV here
        try:
            for entry in manifest:
                got, want = run_command(entry["argv"], "ordext"), expected_result(entry)
                differ = [part for part, a, b in zip(PARTS, got, want) if a != b]
                if differ:
                    failed += 1
                    print(f"{entry['id']}: {', '.join(differ)} differ", file=sys.stderr)
        finally:
            os.chdir(cwd)
    print(f"{len(manifest) - failed} of {len(manifest)} entries byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
