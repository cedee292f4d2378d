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


def test_moved_mc_row_shows_analytic_partner():
    header = "sweep_value,metric,method,value,ci_lo,ci_hi,flags\n"
    old = header + ("10,outage:thz,analytical,0.02,0.02,0.02,\n"
                    "10,outage:thz,mc,0.019,0.017,0.021,\n"
                    "20,outage:thz,analytical,0.002,0.002,0.002,\n"
                    "20,outage:thz,mc,0.0021,0.0019,0.0023,\n")
    new = old.replace("0.019,0.017,0.021", "0.022,0.0205,0.0235")
    new = new.replace("0.0021,0.0019,0.0023", "0.0022,0.0020,0.0024")
    moved = figure_bundles.moved_rows(old, new)
    assert moved == [
        "10,outage:thz,mc: 0.019,0.017,0.021, -> 0.022,0.0205,0.0235,"
        "  [analytical 0.02: OUTSIDE [ci_lo, ci_hi]]",
        "20,outage:thz,mc: 0.0021,0.0019,0.0023, -> 0.0022,0.0020,0.0024,"
        "  [analytical 0.002: in [ci_lo, ci_hi]]",
    ]
