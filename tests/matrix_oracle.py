"""Matrix models of Chevalley bases, used by the tests as oracles.

`SuModel` realizes a Chevalley basis of type A_n as matrices of size n+1,
read from the simple-root coordinates alone: the root e_i - e_j is the
matrix unit E_ij and the simple coroot H_j is E_jj - E_(j+1,j+1).  It takes
nothing from the library's sign conventions: the one sign per root that
relates the two bases is solved from the matrix commutators, and every
structure constant, the compact conjugation and every root rotation are
then compared with plain matrix algebra.  Matrices are sparse, dicts from
(row, column) to nonzero exact scalars.

`rotation_float_error` compares an exact rotation with a floating
evaluation of the exponential it interpolates, with numpy and scipy.
"""

import math

from stemhc.hcstruct import g_coords, root_rotation
from stemhc.rootsystems import Root
from stemhc.scalars import ONE, SQRT2, ZERO, TowerScalar


def mat_mul(a, b):
    rows = {}
    for (k, j), c in b.items():
        rows.setdefault(k, []).append((j, c))
    out = {}
    for (i, k), c in a.items():
        for j, d in rows.get(k, ()):
            out[i, j] = out.get((i, j), ZERO) + c * d
    return {ij: c for ij, c in out.items() if c}


def commutator(a, b):
    out = mat_mul(a, b)
    for ij, c in mat_mul(b, a).items():
        out[ij] = out.get(ij, ZERO) - c
    return {ij: c for ij, c in out.items() if c}


def star(a):
    """The conjugate transpose."""
    return {(j, i): c.conj() for (i, j), c in a.items()}


class SuModel:
    """The matrix model of the Chevalley basis `cb` of one A_n with no
    center.  `unit[r]` is (i, j) for the root r = e_i - e_j, read from the
    run of ones (or of minus ones) in its simple-root coordinates, and
    `sign[r]` is the s(r) = +-1 with E_r -> s(r) E_ij a Lie algebra map:
    s = 1 on the simple roots and s(-r) = s(r), solved by height from one
    decomposition of each root."""

    def __init__(self, cb):
        shape = cb.rs.shape
        if shape.center_dim or [t.family for t in shape.simples] != ["A"]:
            raise ValueError("not a single A_n: %s" % (shape,))
        self.cb = cb
        self.size = shape.simples[0].rank + 1
        self.unit = {r: self._run(r.coords) for r in cb.rs.roots}
        self.sign = {}
        for r in sorted(self.unit, key=lambda r: sum(r.coords)):
            if sum(r.coords) == 1:
                self.sign[r] = 1
            elif sum(r.coords) > 1:
                a, b = self._decomposition(r)
                self.sign[r] = (cb.N(a, b) * self.sign[a]
                                * self.sign[b] * self._m(a, b))
        for r in list(self.sign):
            self.sign[Root(r.comp, tuple(-c for c in r.coords))] = self.sign[r]

    @staticmethod
    def _run(coords):
        """(i, j) for the root e_i - e_j with these simple-root coordinates:
        ones on positions i..j-1 for i < j, minus ones on j..i-1 for i > j."""
        support = [k for k, c in enumerate(coords) if c]
        lo, hi = support[0], support[-1] + 1
        v = coords[lo]
        if v not in (1, -1) or any(coords[k] != v for k in range(lo, hi)):
            raise ValueError("not a root of A_n: %s" % (coords,))
        return (lo, hi) if v == 1 else (hi, lo)

    def _decomposition(self, c):
        """(a, b), both positive roots with a simple and a + b = c."""
        for k in range(len(c.coords)):
            rest = list(c.coords)
            rest[k] -= 1
            b = Root(c.comp, tuple(rest))
            if b in self.unit:
                a = Root(c.comp, tuple(int(j == k) for j in range(len(rest))))
                return a, b
        raise ValueError("no decomposition of %s" % (c,))

    def _m(self, a, b):
        """m_ab = +-1 with [M_a, M_b] = m_ab M_(a+b) for the matrix units M
        of a, b and a + b: [E_ij, E_kl] is E_il if j = k, -E_kj if l = i."""
        (i, j), (k, l) = self.unit[a], self.unit[b]
        return 1 if j == k else -1 if l == i else 0

    def constant_mismatches(self):
        """Every pair (a, b) of roots with a root sum whose structure
        constant N_ab is not s(a) s(b) s(a+b) m_ab, and every such pair
        with no constant."""
        bad = []
        rs = self.cb.rs
        for a in rs.roots:
            for b in rs.roots:
                c = rs.sum(a, b)
                if c is None:
                    continue
                want = (self.sign[a] * self.sign[b] * self.sign[c]
                        * self._m(a, b))
                try:
                    n = self.cb.N(a, b)
                except KeyError:
                    n = None
                if n != want:
                    bad.append((a, b))
        return bad

    def matrix(self, x):
        """The image of the algebra element x."""
        out = {self.unit[r]: c * self.sign[r] for r, c in x.e.items()}
        for j, c in x.cartan.items():
            for k, v in ((j, c), (j + 1, -c)):
                out[k, k] = out.get((k, k), ZERO) + v
        return {ij: c for ij, c in out.items() if c}

    def rotation(self, gamma, rho=ONE):
        """(g, g^-1) with Ad(g) = exp((pi/2) ad X(gamma, rho)): on the plane
        of gamma, 2X = s(gamma) (rho E_ij - conj(rho) E_ji) squares to -1,
        so exp((pi/4) 2X) = (sqrt2/2)(1 + 2X) there, with inverse
        (sqrt2/2)(1 - 2X), and g is 1 elsewhere."""
        rho = TowerScalar.of(rho)
        i, j = self.unit[gamma]
        s = self.sign[gamma]
        h = SQRT2 / 2
        g = {(k, k): ONE for k in range(self.size) if k not in (i, j)}
        g[i, i] = g[j, j] = h
        g_inv = dict(g)
        for ij, c in (((i, j), h * rho * s), ((j, i), -h * rho.conj() * s)):
            g[ij] = c
            g_inv[ij] = -c
        return g, g_inv

    def rotation_mismatches(self, gamma, rho=ONE):
        """The basis indices k at which root_rotation(cb, gamma, rho) sends
        basis vector k elsewhere than Ad(g) does."""
        g, g_inv = self.rotation(gamma, rho)
        rot = root_rotation(self.cb, gamma, rho)
        return [k for k, b in enumerate(self.cb.basis)
                if self.matrix(rot.image(k))
                != mat_mul(mat_mul(g, self.matrix(b)), g_inv)]


def rotation_float_error(cb, gamma, rho=ONE) -> float:
    """Entrywise gap between the dense view of the exact rotation and a
    floating evaluation of the exponential it interpolates.  numpy and
    scipy are imported here, so the exact models above need neither."""
    import numpy as np
    from scipy.linalg import expm

    cols = root_rotation(cb, gamma, rho).cols
    n = len(cb.basis_keys)
    x = cb.X(gamma, rho)
    ad = np.zeros((n, n), dtype=complex)
    for j, key in enumerate(cb.basis_keys):
        col = g_coords(cb, cb.bracket(x, cb.basis_element(key)))
        for i in range(n):
            ad[i, j] = complex(col[i])
    approx = expm((math.pi / 2) * ad)
    exact = np.array([[complex(cols[j][i]) for j in range(n)]
                      for i in range(n)])
    return float(np.max(np.abs(approx - exact)))
