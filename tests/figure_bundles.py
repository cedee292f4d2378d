"""Reference CSV bundles of every ``fsothz figure`` id, for the byte gate.

    PYTHONPATH=src python tests/figure_bundles.py

writes ``fsothz figure <id> --samples 20000 --seed 7`` for each of the
figure ids to ``tests/data/figures/<id>.csv``.  The files record what the
code emits, not the truth: a change that moves a row regenerates them with
this script and lists the moved rows with their oracle values in
CHANGES.md.  ``tests/test_figure_bytes.py`` compares each bundle byte for
byte.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from fsothz import cli
from fsothz.figures import FIGURE_IDS

DATA_DIR = Path(__file__).resolve().parent / "data" / "figures"
ARGS = ("--samples", "20000", "--seed", "7")


def bundle_path(fig_id: str) -> Path:
    return DATA_DIR / f"{fig_id}.csv"


def emit(fig_id: str) -> tuple:
    """(exit code, CSV text) of one bundle, run in-process."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["figure", fig_id, *ARGS])
    return rc, buf.getvalue()


def main() -> int:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for fig_id in FIGURE_IDS:
        rc, text = emit(fig_id)
        if rc != 0:
            print(f"{fig_id}: exit code {rc}", file=sys.stderr)
            return rc
        bundle_path(fig_id).write_text(text, encoding="utf-8")
        print(f"{fig_id}: {text.count(chr(10)) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
