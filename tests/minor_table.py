"""The minor table: a reference for the min route at small n.

Every selection norm of [X | Y] read from a table of all C(3n, n) - 1
square minors, computed once by ``matops._minor_levels``, and the first
minimizing selection found by scanning it.  ``lattice._min_selections``
replaces it in the package; the tests compare the two.
"""

from itertools import combinations

from hivekit import INFINITY
from hivekit.matops import _minor_levels


def minor_norms(form) -> dict:
    """matrix_norm of every column selection of [X | Y] with at most n
    columns, keyed by the selected column indices (Y's columns are
    n..2n-1); INFINITY when every maximal minor of the selection is zero.

    ``form`` is the raw form ``matops._raw_entries(X, Y)`` (or
    ``matops._swap_form`` of one).  A selection's norm is the minimal
    valuation of its maximal minors; a k-column selection's raw norm
    exceeds its norm by k times the form's shift.
    """
    (x_rows, y_rows), val, _, shift = form
    norms = {}
    levels = _minor_levels(list(zip(*x_rows)) + list(zip(*y_rows)),
                           len(x_rows))
    for k, level in enumerate(levels, 1):
        for sel, dets in level.items():
            best = INFINITY
            for det in dets:
                if det:
                    v = val(det)
                    if v < best:
                        best = v
            norms[sel] = best - k * shift
    return norms


def selection_min(norms, n, kx, ky):
    """Minimal matrix_norm of [X-cols_(Jx) | Y-cols_(Jy)] over column
    selections with |Jx| = kx, |Jy| = ky >= 1, read from the table
    ``norms = minor_norms(form)``, and the first minimizing pair
    (Jx, Jy) in scan order (Jx outer, Jy inner); None if every selection
    is rank deficient."""
    y_sel = [(jy, tuple(n + j for j in jy))
             for jy in combinations(range(n), ky)]
    best = INFINITY
    first = None
    for jx in combinations(range(n), kx):
        for jy, y_cols in y_sel:
            val = norms[jx + y_cols]
            if val < best:
                best = val
                first = (jx, jy)
    return best, first
