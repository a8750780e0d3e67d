"""Root-keyed construction of root systems and Chevalley constants, as an
oracle.

`positive_roots` walks alpha_i-strings on hashed Root sets with `root_sub`
and `root_sum`, `root_tables` fills the root-sum table and its index rows by
testing every ordered pair of roots of a component, and
`structure_constants` sets the constants triple by triple on Root-keyed
pairs, negating with `Root.__neg__` and reading the Root-keyed table.  They
share none of the integer codes, positive-pair triples or index arithmetic
that the library's own construction runs on.  `killing_e` and
`invariant_form` give the Killing form on root vectors, which the library
does not carry: it keeps only the Cartan block `killing_h`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from stemhc.rootsystems import Root, cartan_matrix, norm_halves
from stemhc.scalars import ZERO


def root_sum(a: Root, b: Root):
    """Coordinate sum; None when the roots live in different components."""
    if a.comp != b.comp:
        return None
    return Root(a.comp, tuple(x + y for x, y in zip(a.coords, b.coords)))


def root_sub(a: Root, b: Root):
    """Coordinate difference; None across components."""
    if a.comp != b.comp:
        return None
    return Root(a.comp, tuple(x - y for x, y in zip(a.coords, b.coords)))


def positive_roots(ci, t):
    """The positive roots of component ci, of type t, in the order found."""
    n = t.rank
    C = cartan_matrix(t)
    simples = [Root(ci, tuple(1 if j == i else 0 for j in range(n)))
               for i in range(n)]
    known = set(simples)
    layer = list(simples)
    out = list(simples)
    while layer:
        nxt = []
        for a in layer:
            for i in range(n):
                ai = simples[i]
                # p = how far the alpha_i-string continues below a
                p = 0
                v = root_sub(a, ai)
                while v in known:
                    p += 1
                    v = root_sub(v, ai)
                c = sum(a.coords[k] * C[k][i] for k in range(n))
                if p - c > 0:
                    up = root_sum(a, ai)
                    if up not in known:
                        known.add(up)
                        nxt.append(up)
                        out.append(up)
        layer = nxt
    return out


def root_tables(shape):
    """The tables of `RootSystem(shape)`: a dict of positives, roots, sums,
    sum_rows, pairings and weights."""
    positives = sorted((r for ci, t in enumerate(shape.simples)
                        for r in positive_roots(ci, t)), key=Root.key)
    negatives = [Root(r.comp, tuple(-c for c in r.coords)) for r in positives]
    roots = positives + negatives
    columns = [tuple(zip(*cartan_matrix(t))) for t in shape.simples]
    pairings = {r: tuple(sum(map(mul, r.coords, col))
                         for col in columns[r.comp]) for r in roots}
    dvecs = [norm_halves(t) for t in shape.simples]
    scales = [lcm(*(dj.denominator for dj in d)) for d in dvecs]
    ldvecs = [tuple(int(L * dj) for dj in d) for L, d in zip(scales, dvecs)]
    weights = {r: tuple(map(mul, ldvecs[r.comp], pairings[r])) for r in roots}
    sums = {}
    sum_rows = [()] * len(roots)
    for ci in range(len(shape.simples)):
        ids = [i for i, r in enumerate(roots) if r.comp == ci]
        base = 4 * max(max(roots[i].coords) for i in ids) + 1
        codes = [sum(c * base ** k for k, c in enumerate(roots[i].coords))
                 for i in ids]
        at = dict(zip(codes, ids))
        for i, ca in zip(ids, codes):
            row = sums[roots[i]] = {}
            irow = []
            for j, cb in zip(ids, codes):
                s = ca + cb
                k = at.get(s)
                if k is not None:
                    row[roots[j]] = roots[k]
                    if j > i:
                        irow += (j, k)
            sum_rows[i] = tuple(irow)
    return {"positives": positives, "roots": roots, "sums": sums,
            "sum_rows": sum_rows, "pairings": pairings, "weights": weights}


def structure_constants(tables):
    """N(a, b) for every pair of roots with a root sum, keyed by Root pairs,
    from the tables of `root_tables`: the minimal decomposition of each
    positive root c = a + b gets p + 1 > 0, with p the length of the
    a-string below b, and the Jacobi identity forces the others."""
    sums = tables["sums"]
    positives = tables["positives"]
    posset = set(positives)
    roots = set(tables["roots"])
    weights = tables["weights"]
    N = {}
    norm = {r: sum(map(mul, r.coords, weights[r])) for r in positives}

    def set_triple(a, b, n):
        c = sums[a][b]
        r1, rem1 = divmod(n * norm[a], norm[c])
        r2, rem2 = divmod(n * norm[b], norm[c])
        if rem1 or rem2:
            raise AssertionError("non-integral constant on (%s, %s)" % (a, b))
        nc = -c
        for (u, v), m in (((a, b), n), ((b, nc), r1), ((nc, a), r2)):
            N[(u, v)] = m
            N[(v, u)] = -m
            N[(-u, -v)] = -m
            N[(-v, -u)] = m

    for c in positives:
        if c.height < 2:
            continue
        specials = sorted(
            ((a, sums[c][-a]) for a in positives
             if sums[c].get(-a) in posset and a.key() < sums[c][-a].key()),
            key=lambda ab: ab[0].key())
        a0, b0 = specials[0]
        p = 0
        v = root_sub(b0, a0)
        while v in roots:
            p += 1
            v = root_sub(v, a0)
        set_triple(a0, b0, p + 1)
        na0 = -a0
        for x, y in specials[1:]:
            t = 0
            xm = sums[x].get(na0)
            if xm is not None:
                t += N[(na0, x)] * N[(xm, y)]
            ym = sums[y].get(na0)
            if ym is not None:
                t += N[(y, na0)] * N[(ym, x)]
            denom = N[(c, na0)]
            if t % denom:
                raise AssertionError("Jacobi forces a non-integral "
                                     "constant on (%s, %s)" % (x, y))
            set_triple(x, y, -t // denom)
    return N


def coroots(cb):
    """H_r as an integer global h-vector for every root, in root order."""
    rs = cb.rs
    out = {}
    for r in rs.roots:
        ld = rs._ldvecs[r.comp]
        lnorm = sum(map(mul, r.coords, rs._weights[r]))
        h = [0] * cb.total_rank
        for i, m in enumerate(r.coords):
            v, rem = divmod(2 * m * ld[i], lnorm)
            if rem:
                raise AssertionError("non-integral coroot of %s" % (r,))
            h[cb.offsets[r.comp] + i] = v
        out[r] = tuple(h)
    return out


@lru_cache(maxsize=None)
def killing_e(cb):
    """B(E_r, E_-r) = B(H_r, H_r) / 2 for the positive roots r, with the
    trace form summed over the roots; made once per basis."""
    rs = cb.rs
    n = cb.total_rank
    K = [[0] * n for _ in range(n)]
    for b in rs.roots:
        off = cb.offsets[b.comp]
        p = rs._pairings[b]
        for i, pi in enumerate(p):
            for j, pj in enumerate(p):
                K[off + i][off + j] += pi * pj
    hroot = coroots(cb)
    out = {}
    for r in rs.positives:
        h = hroot[r]
        out[r] = Fraction(sum(h[i] * h[j] * K[i][j]
                              for i in range(n) for j in range(n)), 2)
    return out



def invariant_form(cb, x, y):
    """The Killing form on the semisimple part and the identity on the
    center (complex basis): `killing_e` on the root vectors and the basis's
    `killing_h` on the Cartan parts."""
    if x.cb is not cb or y.cb is not cb:
        raise ValueError("elements from different bases")
    ke = killing_e(cb)
    acc = ZERO
    for a, ca in x.e.items():
        cb2 = y.e.get(-a)
        if cb2:
            acc = acc + ca * cb2 * ke[a if a.positive else -a]
    for i, xi in x.cartan.items():
        row = cb.killing_h[i]
        for j, yj in y.cartan.items():
            if row[j]:
                acc = acc + xi * yj * row[j]
    return acc

def slot_pairings(cb):
    """alpha(H_j) by global Cartan slot j, nonzero values only, for every
    root, in root order."""
    return {r: {cb.offsets[r.comp] + j: p
                for j, p in enumerate(cb.rs._pairings[r]) if p}
            for r in cb.rs.roots}
