"""Independent Euclidean realizations of the classical root systems.

Used by the tests as an oracle: root sets are generated directly from the
+-e_i +- e_j style descriptions (never from Cartan matrices), and simple-root
conversion tables are fixed per family.  Everything is exact (Fractions).
"""

from fractions import Fraction
from itertools import combinations, product

from stemhc.rootsystems import SimpleType


def _vec(n, entries):
    v = [Fraction(0)] * n
    for idx, val in entries:
        v[idx] = Fraction(val)
    return tuple(v)


def euclid_simples(t: SimpleType):
    """Bourbaki simple roots in the ambient Euclidean space."""
    f, n = t.family, t.rank
    if f == "A":
        return [_vec(n + 1, [(i, 1), (i + 1, -1)]) for i in range(n)]
    if f == "B":
        return [_vec(n, [(i, 1), (i + 1, -1)]) for i in range(n - 1)] + \
               [_vec(n, [(n - 1, 1)])]
    if f == "C":
        return [_vec(n, [(i, 1), (i + 1, -1)]) for i in range(n - 1)] + \
               [_vec(n, [(n - 1, 2)])]
    if f == "D":
        return [_vec(n, [(i, 1), (i + 1, -1)]) for i in range(n - 1)] + \
               [_vec(n, [(n - 2, 1), (n - 1, 1)])]
    if f == "G":
        return [_vec(3, [(0, 1), (1, -1)]),
                _vec(3, [(0, -2), (1, 1), (2, 1)])]
    if f == "F":
        return [_vec(4, [(1, 1), (2, -1)]),
                _vec(4, [(2, 1), (3, -1)]),
                _vec(4, [(3, 1)]),
                tuple(Fraction(s, 2) for s in (1, -1, -1, -1))]
    if f == "E":
        half = [Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2),
                Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2),
                Fraction(-1, 2), Fraction(1, 2)]
        alphas = [tuple(half),
                  _vec(8, [(0, 1), (1, 1)]),
                  _vec(8, [(1, 1), (0, -1)]),
                  _vec(8, [(2, 1), (1, -1)]),
                  _vec(8, [(3, 1), (2, -1)]),
                  _vec(8, [(4, 1), (3, -1)]),
                  _vec(8, [(5, 1), (4, -1)]),
                  _vec(8, [(6, 1), (5, -1)])]
        return alphas[:n]
    raise AssertionError(t)


def euclid_roots(t: SimpleType):
    """The full root set, generated independently of any Cartan matrix."""
    f, n = t.family, t.rank
    out = set()
    if f == "A":
        for i, j in combinations(range(n + 1), 2):
            out.add(_vec(n + 1, [(i, 1), (j, -1)]))
            out.add(_vec(n + 1, [(i, -1), (j, 1)]))
    elif f in ("B", "C", "D"):
        for i, j in combinations(range(n), 2):
            for si, sj in product((1, -1), repeat=2):
                out.add(_vec(n, [(i, si), (j, sj)]))
        if f == "B":
            for i in range(n):
                out.add(_vec(n, [(i, 1)]))
                out.add(_vec(n, [(i, -1)]))
        if f == "C":
            for i in range(n):
                out.add(_vec(n, [(i, 2)]))
                out.add(_vec(n, [(i, -2)]))
    elif f == "G":
        for i, j in combinations(range(3), 2):
            out.add(_vec(3, [(i, 1), (j, -1)]))
            out.add(_vec(3, [(i, -1), (j, 1)]))
        for i in range(3):
            j, k = [x for x in range(3) if x != i]
            out.add(_vec(3, [(i, 2), (j, -1), (k, -1)]))
            out.add(_vec(3, [(i, -2), (j, 1), (k, 1)]))
    elif f == "F":
        for i in range(4):
            out.add(_vec(4, [(i, 1)]))
            out.add(_vec(4, [(i, -1)]))
        for i, j in combinations(range(4), 2):
            for si, sj in product((1, -1), repeat=2):
                out.add(_vec(4, [(i, si), (j, sj)]))
        for signs in product((1, -1), repeat=4):
            out.add(tuple(Fraction(s, 2) for s in signs))
    elif f == "E":
        full = set()
        for i, j in combinations(range(8), 2):
            for si, sj in product((1, -1), repeat=2):
                full.add(_vec(8, [(i, si), (j, sj)]))
        for signs in product((1, -1), repeat=8):
            if signs.count(-1) % 2 == 0:
                full.add(tuple(Fraction(s, 2) for s in signs))
        if len(full) != 240:
            raise AssertionError("E8 has %d roots, expected 240" % len(full))
        if n == 8:
            out = full
        elif n == 7:
            out = {v for v in full if v[6] + v[7] == 0}
        else:
            out = {v for v in full if v[6] + v[7] == 0 and v[5] == v[6]}
    else:
        raise AssertionError(t)
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def to_euclid(t: SimpleType, coords):
    """Map simple-root coordinates to the Euclidean realization."""
    simples = euclid_simples(t)
    n = len(simples[0])
    acc = [Fraction(0)] * n
    for c, s in zip(coords, simples):
        for k in range(n):
            acc[k] += c * s[k]
    return tuple(acc)
