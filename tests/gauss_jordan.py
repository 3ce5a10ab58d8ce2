"""Dense Gauss-Jordan elimination over ``Fraction``: a test oracle for ranks,
echelon forms and kernels that shares no code with the package's integer
elimination (``sullivan.linalg._forward``)."""

from fractions import Fraction


def dense_rref(rows, cols):
    """The nonzero rows of the reduced row echelon form of the dense rows,
    each of length cols, and their pivot columns.  Column by column, the
    first remaining row nonzero there is swapped up, divided by its entry
    and subtracted from every other row; the rows are kept as their
    nonzero entries in between."""
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x} for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        i = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        lead = rows[r][c]
        pivot = rows[r] = {j: x / lead for j, x in rows[r].items()}
        for k, row in enumerate(rows):
            if k != r and (f := row.get(c)):
                for j, y in pivot.items():
                    if x := row.get(j, 0) - f * y:
                        row[j] = x
                    else:
                        del row[j]
        pivots.append(c)
    return [[row.get(j, Fraction(0)) for j in range(cols)] for row in rows[: len(pivots)]], pivots


def dense_rank(rows, cols):
    return len(dense_rref(rows, cols)[1])


def dense_null_space(rows, cols):
    """A basis of the vectors v with row·v = 0 for every row: one per free
    column f, 1 at f and −R[i][f] at the i-th pivot."""
    reduced, pivots = dense_rref(rows, cols)
    basis = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis
