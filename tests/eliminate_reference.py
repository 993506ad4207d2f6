"""The full-scan elimination: the reference for ``matops._eliminate``.

The same minimal-valuation elimination of raw rows, pivoting only in the
first ``width`` columns, with the scan that reads every eligible entry
before it picks a pivot (the first of least valuation in row-major
order) and no pivot limit.  ``matops._eliminate`` stops its scan at the
previous pivot's valuation and can stop after a number of pivots; the
tests require the same pivots, pivot rows and rows left over.
"""

from hivekit import INFINITY


def full_scan_eliminate(rows, width, val, step, pivots=None) -> list:
    vals = []
    cols = list(range(width))
    while rows:
        best, piv = INFINITY, None
        for i, row in enumerate(rows):
            for j in range(width):
                x = row[j]
                if x:
                    v = val(x)
                    if v < best:
                        best, piv = v, (i, j)
        if piv is None:
            break
        vals.append(best)
        prow = rows.pop(piv[0])
        pivot = prow.pop(piv[1])
        col = cols.pop(piv[1])
        if pivots is not None:
            pivots.append((col, prow))
        clear = step(pivot, best)
        for i, row in enumerate(rows):
            e = row.pop(piv[1])
            if e:
                rows[i] = clear(row, prow, e)
        width -= 1
    return vals
