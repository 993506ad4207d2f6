"""The minor table: references for the min route and the adjugate.

Every square minor of a raw matrix, level by level, by one Laplace
recursion (``minor_levels``); from it every selection norm of [X | Y]
(all C(3n, n) - 1 of them) and the first minimizing selection found by
scanning them, and the cofactor adjugate product
(``cofactor_adjugate``).  The package replaces them with eliminations
(``lattice._min_selections`` and ``matops._adj_product``); the tests
compare the two.  Only multiplications, additions and subtractions of
the raw values are made here, with no ``hivekit`` kernel.
"""

from itertools import combinations

from hivekit import INFINITY


def minor_levels(cols, n):
    """Every square minor of the n-row matrix with columns ``cols`` (raw
    values), level by level.

    Yields, for k = 1..n, a dict from each k-column selection (an
    ascending index tuple) to the list of its k x k minors, one per row
    set in ``combinations(range(n), k)`` order; a vanishing minor is None
    or a zero raw value.  A k x k minor is the Laplace expansion along its
    last column over the (k-1) x (k-1) minors of the selection without
    that column.  The expansion of each row set, (row, position of the row
    set without it, sign), is worked out once per level.
    """
    row_sets = [list(combinations(range(n), k)) for k in range(n + 1)]
    level = {(j,): list(col) for j, col in enumerate(cols)}
    yield level
    for k in range(2, n + 1):
        index = {rows: r for r, rows in enumerate(row_sets[k - 1])}
        expansions = [[(i, index[rows[:pos] + rows[pos + 1:]],
                        (k - 1 - pos) % 2) for pos, i in enumerate(rows)]
                      for rows in row_sets[k]]
        below, level = level, {}
        for sel in combinations(range(len(cols)), k):
            subs, col = below[sel[:-1]], cols[sel[-1]]
            dets = []
            for expansion in expansions:
                det = None
                for i, r, negative in expansion:
                    x = col[i]
                    if x:
                        y = subs[r]
                        if y:
                            term = x * y
                            if det is None:
                                det = -term if negative else term
                            elif negative:
                                det = det - term
                            else:
                                det = det + term
                dets.append(det)
            level[sel] = dets
        yield level


def cofactor_adjugate(b_rows, l_rows, zero, one):
    """(det B, adj(B) L) for a square raw matrix B and raw rows L, with
    adj(B)[j][i] = (-1)^(i+j) det(B without row i and column j) read from
    ``minor_levels`` of B; ``zero`` and ``one`` are the raw zero and one.
    det B is a vanishing value (None or zero) exactly when B is
    singular."""
    n = len(b_rows)
    levels = list(minor_levels(list(zip(*b_rows)), n))
    det = levels[-1][tuple(range(n))][0]
    # minors[j][i] = det(B without row i and column j); the row sets of the
    # (n-1)-minors leave out rows n-1, ..., 0 in turn
    minors = [[one]] if n == 1 else [
        levels[-2][tuple(c for c in range(n) if c != j)][::-1]
        for j in range(n)]
    adj_l = []
    for j, minor_row in enumerate(minors):
        adj_row = []
        for l in range(len(l_rows[0])):
            acc = zero
            for i, (m, row) in enumerate(zip(minor_row, l_rows)):
                if m and row[l]:
                    term = m * row[l]
                    acc = acc - term if (i + j) % 2 else acc + term
            adj_row.append(acc)
        adj_l.append(adj_row)
    return det, adj_l


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
    levels = minor_levels(list(zip(*x_rows)) + list(zip(*y_rows)),
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
