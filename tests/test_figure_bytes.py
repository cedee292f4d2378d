"""Byte gate: every figure bundle reproduces its reference CSV exactly.

The references under ``tests/data/figures/`` are written by
``tests/figure_bundles.py``.  On a mismatch the test names each moved row:
sweep value, metric, method, old and new value and flags.
"""

import pytest

from fsothz.figures import FIGURE_IDS

import figure_bundles


def _keyed(text: str) -> dict:
    rows = {}
    for line in text.splitlines()[1:]:
        sweep, metric, method, rest = line.split(",", 3)
        rows[(sweep, metric, method)] = rest
    return rows


def _moved_rows(old: str, new: str) -> list:
    before, after = _keyed(old), _keyed(new)
    moved = []
    for key in sorted(before.keys() | after.keys()):
        was, now = before.get(key, "<absent>"), after.get(key, "<absent>")
        if was != now:
            moved.append(f"{','.join(key)}: {was} -> {now}")
    return moved


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_bundle_bytes_unchanged(fig_id):
    rc, text = figure_bundles.emit(fig_id)
    assert rc == 0
    reference = figure_bundles.bundle_path(fig_id).read_text(encoding="utf-8")
    if text != reference:
        moved = _moved_rows(reference, text)
        pytest.fail(f"{fig_id}: {len(moved)} rows moved "
                    "(sweep,metric,method: old -> new value,ci_lo,ci_hi,flags)\n"
                    + "\n".join(moved or ["row order or header changed"]))
