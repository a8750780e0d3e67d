"""Small exact dense linear algebra over Fraction or TowerScalar entries.

Only what the library needs: reduced row echelon form, kernels, square
inversion, and products, plus the spans the tests compare.  Pivoting is
first-nonzero, which keeps every output deterministic (a requirement for the
canonical bases picked downstream).
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import TowerScalar


def _zero_one(sample):
    if isinstance(sample, TowerScalar):
        from .scalars import ZERO, ONE
        return ZERO, ONE
    return Fraction(0), Fraction(1)


def rref(rows):
    """Reduced row echelon form.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.  Input rows
    are not modified.
    """
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    zero, _one = _zero_one(rows[0][0])
    out = []
    pivots = []
    col = 0
    work = rows
    while work and col < ncols:
        pivot_row = None
        for i, r in enumerate(work):
            if r[col]:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        row = work.pop(pivot_row)
        inv = row[col] ** -1 if isinstance(row[col], Fraction) else row[col].inv()
        row = [x * inv for x in row]
        for r in work:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] = r[j] - f * row[j]
        for r in out:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] = r[j] - f * row[j]
        out.append(row)
        pivots.append(col)
        col += 1
    return out, pivots


def kernel_basis(rows, ncols=None):
    """Basis of {v : M v = 0}, from the RREF free columns.

    Deterministic: one vector per free column, in column order, each with a 1
    in its free slot.  `ncols` is required when rows is empty.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols needed for empty matrix")
        return [[Fraction(1) if i == j else Fraction(0) for j in range(ncols)]
                for i in range(ncols)]
    ncols = len(rows[0])
    zero, one = _zero_one(rows[0][0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [j for j in range(ncols) if j not in pivot_set]
    basis = []
    for j in free:
        v = [zero] * ncols
        v[j] = one
        for r, p in zip(red, pivots):
            v[p] = -r[j]
        basis.append(v)
    return basis


class Span:
    """A subspace held in RREF; two spans are equal iff their rows are."""

    def __init__(self, vectors, ncols=None):
        vectors = [list(v) for v in vectors]
        self.vectors = vectors
        if vectors:
            self.ncols = len(vectors[0])
        else:
            if ncols is None:
                raise ValueError("ncols needed for empty span")
            self.ncols = ncols
        self.rows, self.pivots = rref(vectors)

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Span):
            return NotImplemented
        return (self.ncols == other.ncols and self.pivots == other.pivots
                and self.rows == other.rows)

    def __hash__(self):
        raise TypeError("unhashable")


def mat_vec(matrix, vec):
    zero, _ = _zero_one(matrix[0][0]) if matrix else _zero_one(Fraction(0))
    out = []
    for row in matrix:
        acc = zero
        for a, b in zip(row, vec):
            if a and b:
                acc = acc + a * b
        out.append(acc)
    return out


def mat_mul(a, b):
    bt = list(zip(*b))
    return [mat_vec(bt, row) for row in a]


def invert(matrix):
    """Exact inverse of a square matrix; ValueError if singular."""
    n = len(matrix)
    zero, one = _zero_one(matrix[0][0])
    aug = [list(matrix[i]) + [one if j == i else zero for j in range(n)]
           for i in range(n)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
