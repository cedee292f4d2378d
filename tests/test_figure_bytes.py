"""Byte gate: every figure bundle reproduces its reference CSV exactly.

The references under ``tests/data/figures/`` are written by
``tests/figure_bundles.py``.  On a mismatch the test names each moved row:
sweep value, metric, method, old and new value and flags.
"""

import pytest

from fsothz.figures import FIGURE_IDS

import figure_bundles


@pytest.mark.parametrize("fig_id", FIGURE_IDS)
def test_bundle_bytes_unchanged(fig_id):
    rc, text = figure_bundles.emit(fig_id)
    assert rc == 0
    reference = figure_bundles.bundle_path(fig_id).read_text(encoding="utf-8")
    if text != reference:
        moved = figure_bundles.moved_rows(reference, text)
        pytest.fail(f"{fig_id}: {len(moved)} rows moved "
                    "(sweep,metric,method: old -> new value,ci_lo,ci_hi,flags)\n"
                    + "\n".join(moved or ["row order or header changed"]))
