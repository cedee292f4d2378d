"""Reference CSV bundles of every ``fsothz figure`` id, for the byte gate.

    PYTHONPATH=src python tests/figure_bundles.py [--diff]

writes ``fsothz figure <id> --samples 20000 --seed 7`` for each of the
figure ids to ``tests/data/figures/<id>.csv``.  The files record what the
code emits, not the truth: a change that moves a row regenerates them with
this script and lists the moved rows with their oracle values in
CHANGES.md.  ``--diff`` first prints each moved row against the files in
place (sweep value, metric, method: old -> new value, ci_lo, ci_hi,
flags), keyed as ``tests/test_figure_bytes.py`` keys them when it compares
each bundle byte for byte.  A moved ``mc`` row also shows the new bundle's
``analytical`` value of the same sweep value and metric, and whether its
new [ci_lo, ci_hi] holds it.
"""

from __future__ import annotations

import argparse
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


def keyed_rows(text: str) -> dict:
    """CSV rows by (sweep value, metric, method), header dropped."""
    rows = {}
    for line in text.splitlines()[1:]:
        sweep, metric, method, rest = line.split(",", 3)
        rows[(sweep, metric, method)] = rest
    return rows


def analytic_note(key: tuple, rows: dict) -> str:
    """The analytic partner of an ``mc`` row and whether its interval holds it.

    Empty for other methods and for rows without a partner.
    """
    sweep, metric, method = key
    partner = rows.get((sweep, metric, "analytical"))
    if method != "mc" or partner is None or key not in rows:
        return ""
    value = partner.split(",", 1)[0]
    _, lo, hi, _ = rows[key].split(",", 3)
    where = "in" if float(lo) <= float(value) <= float(hi) else "OUTSIDE"
    return f"  [analytical {value}: {where} [ci_lo, ci_hi]]"


def moved_rows(old: str, new: str) -> list:
    """One line per row that differs between two bundles, in key order."""
    before, after = keyed_rows(old), keyed_rows(new)
    moved = []
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key, "<absent>"), after.get(key, "<absent>")
        if was != now:
            moved.append(f"{','.join(key)}: {was} -> {now}"
                         + analytic_note(key, after))
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print the moved rows before rewriting")
    args = parser.parse_args(argv)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    for fig_id in FIGURE_IDS:
        rc, text = emit(fig_id)
        if rc != 0:
            print(f"{fig_id}: exit code {rc}", file=sys.stderr)
            return rc
        path = bundle_path(fig_id)
        if args.diff and path.is_file():
            for line in moved_rows(path.read_text(encoding="utf-8"), text):
                print(f"{fig_id} {line}")
        path.write_text(text, encoding="utf-8")
        print(f"{fig_id}: {text.count(chr(10)) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
