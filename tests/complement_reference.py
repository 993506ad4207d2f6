"""The complement-set route: the reference for ``lattice._min_selections``.

The min side of a hive read by Laplace expansion along the diagonal of
the reduced X: one elimination of [X | Y] pivoting in X's columns gives
lam and Y' = U Y, and then, for each set S of pivot rows, one
elimination of Y' without the rows S gives d_ky(Y' without S), so

    best[kx, ky] = min over |S| = kx of lam_S + d_ky(Y' without S).

A set S is skipped when lam_S + d_ky(Y') already reaches the best value
for every ky: a minor of a row submatrix is a minor of Y'.  Only a
strictly smaller value replaces a best one, so jw is the first pivot
columns at the first minimizing S in ``combinations`` order.
``lattice._min_selections`` walks the kept row sets instead, one pivot
per set; the tests require the same lam and the same values (the
witness columns may differ, as long as each reaches its value).
"""

from itertools import accumulate, combinations

from hivekit import INFINITY
from hivekit.matops import _eliminate


def complement_min_selections(form):
    (x_rows, y_rows), val, step, shift = form
    n = len(x_rows)
    pivots = []
    lam = _eliminate([list(x) + list(y) for x, y in zip(x_rows, y_rows)],
                     n, val, step, pivots)
    y_red = [row[-n:] for _, row in pivots]
    best = {(kx, ky): (INFINITY, None)
            for kx in range(n) for ky in range(1, n - kx + 1)}
    floor = None  # d_ky(Y'), set by S = {}, the first S
    for kx in range(n):
        for rows in combinations(range(n), kx):
            lam_s = sum(lam[i] for i in rows)
            if kx and all(lam_s + floor[ky] >= best[kx, ky][0]
                          for ky in range(1, n - kx + 1)):
                continue
            cols = []
            vals = _eliminate([list(y) for i, y in enumerate(y_red)
                               if i not in rows], n, val, step, cols)
            if not kx:
                floor = list(accumulate(vals, initial=0))
            value = lam_s
            for ky, v in enumerate(vals, 1):
                value += v
                if value < best[kx, ky][0]:
                    best[kx, ky] = (value,
                                    tuple(sorted(j for j, _ in cols[:ky])))
    return ([v - shift for v in lam],
            {(kx, ky): (value - (kx + ky) * shift, jw)
             for (kx, ky), (value, jw) in best.items()})
