"""Chevalley bases with integer structure constants, exact brackets, the
compact conjugation, and the Cartan block of the trace form.

Structure-constant signs are fixed the classical way: walk the positive roots
by height; for each non-simple positive root the minimal-first decomposition
gets N = p+1 > 0, every other decomposition is forced by the Jacobi identity,
and each value is propagated to the full 12-pair orbit of its root triple.

The constants live in one table by root index, `n_table`, worked out from the
decompositions c = a + b of each positive root that
`RootSystem.decompositions` lists: N(roots[i], roots[j]) is the signed byte
in cell i * R + j, with R roots, and 0 where the two roots do not sum to a
root.  `ChevalleyBasis.N(a, b)` reads a cell by Root, and raises KeyError on
a 0, next to `RootSystem.sum(a, b)`, which gives a + b.  The basis checks
that each pair of the root system's index rows `_sum_rows`, the pairs whose
sum is a root, has a constant.  The bracket reads the table and, where a
cell is nonzero, the index of the sum off the root codes; it adds [E_a,
E_-a] = H_a apart from the table, and `combine` forms every linear
combination; both drop zero coefficients once, at the end.

An element stores its Cartan part and its root part sparsely, as dicts of
nonzero coefficients, so operations touch only the slots an element uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul, neg

from .rootsystems import ReductiveShape, Root, RootSystem, build_cached
from .scalars import TowerScalar, ZERO, ONE, I, HALF
from .reporting import CheckReport


@dataclass
class AlgebraElement:
    """cartan maps Cartan slots (simple coroots per component, then the
    center) and e maps roots to their nonzero coefficients, all TowerScalars;
    h is the Cartan part as a dense tuple view."""

    cb: "ChevalleyBasis"
    cartan: dict
    e: dict

    @property
    def h(self) -> tuple:
        return tuple(self.cartan.get(j, ZERO)
                     for j in range(self.cb.total_rank))

    def is_zero(self):
        return not self.cartan and not self.e

    def __add__(self, other):
        if not isinstance(other, AlgebraElement) or other.cb is not self.cb:
            raise ValueError("elements come from different bases")
        return AlgebraElement(self.cb, _added(self.cartan, other.cartan),
                              _added(self.e, other.e))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.cb,
                              {j: -c for j, c in self.cartan.items()},
                              {r: -c for r, c in self.e.items()})

    def scale(self, s) -> "AlgebraElement":
        s = TowerScalar.of(s)
        if not s:
            return self.cb.zero()
        return AlgebraElement(self.cb,
                              {j: s * c for j, c in self.cartan.items()},
                              {r: s * c for r, c in self.e.items()})

    def __rmul__(self, s):
        return self.scale(s)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.cb is other.cb and self.cartan == other.cartan
                and self.e == other.e)

    def __str__(self):
        parts = []
        for r in sorted(self.e, key=Root.key):
            parts.append("(%s) E[%s]" % (self.e[r], r))
        for j in sorted(self.cartan):
            parts.append("(%s) H[%d]" % (self.cartan[j], j))
        return " + ".join(parts) if parts else "0"


def _unit_phase(rho, root=None) -> TowerScalar:
    """rho as a TowerScalar; ValueError, naming the root when one is given,
    unless it has modulus one."""
    rho = TowerScalar.of(rho)
    if not rho.is_unit_modulus():
        where = "" if root is None else " for %s" % (root,)
        raise ValueError("phase%s is not unit modulus: %s" % (where, rho))
    return rho


def _added(u: dict, v: dict) -> dict:
    """The sum of two sparse coefficient dicts, without zero entries."""
    out = dict(u)
    for k, c in v.items():
        out[k] = out.get(k, ZERO) + c
    return {k: c for k, c in out.items() if c}


class ChevalleyBasis:
    def __init__(self, rs: RootSystem):
        self.rs = rs
        shape = rs.shape
        self.offsets = []
        off = 0
        for t in shape.simples:
            self.offsets.append(off)
            off += t.rank
        self.semisimple_rank = off
        self.total_rank = off + shape.center_dim
        self.center_dim = shape.center_dim
        # N(roots[i], roots[j]) in cell i * R + j, R = len(rs.roots), and 0
        # where the two roots do not sum to a root; signed bytes
        R = len(rs.roots)
        self.n_table = memoryview(bytearray(R * R)).cast("b")
        for ci in range(len(shape.simples)):
            self._build_constants(ci)
        # Each cell set above is an ordered pair of a triple {a, b, -(a+b)}
        # of a decomposition, or of its opposite, so its sum is a root.  The
        # index rows hold the two numbers (j, k) once per such pair {i, j}:
        # the table misses a pair exactly when it has fewer nonzero cells
        # than the rows hold numbers.  Only then are the rows walked, in
        # both orders.
        if (len(self.n_table) - self.n_table.tobytes().count(0)
                != sum(map(len, rs._sum_rows))):
            roots = rs.roots
            for i, row in enumerate(rs._sum_rows):
                for j in row[::2]:
                    for u, v in ((i, j), (j, i)):
                        if not self.n_table[u * R + v]:
                            raise ValueError(
                                "no structure constant for (%s, %s)"
                                % (roots[u], roots[v]))
        # H_-r = -H_r and (-r)(H_j) = -r(H_j)
        hroot = [self._coroot_coords(r) for r in rs.positives]
        self.hroot = dict(zip(rs.roots, hroot + [tuple(map(neg, h))
                                                 for h in hroot]))
        # alpha(H_j) by global Cartan slot j, nonzero values only
        pairings = [{self.offsets[r.comp] + j: p
                     for j, p in enumerate(rs._pairings[r]) if p}
                    for r in rs.positives]
        self.pairings = dict(zip(rs.roots, pairings + [
            {j: -p for j, p in d.items()} for d in pairings]))
        # canonical ordering of the full basis, used for matrices
        self.basis_keys = [("e", r) for r in sorted(rs.roots, key=Root.key)]
        self.basis_keys += [("h", j) for j in range(self.total_rank)]
        self.key_index = {k: i for i, k in enumerate(self.basis_keys)}
        self.killing_h = [[Fraction(x) for x in row]
                          for row in self._killing_h_matrix()]
        # the rotations exp((pi/2) ad X_gamma) at the phase one and their
        # products by tuple of roots, rephased by `hcstruct.root_rotation`
        # and `hcstruct.rotation_product`; and the proofs that
        # `hcstruct.verify_rotation` makes on them: by the key (root,) of a
        # one-root table, (table, whether its stored grades are those of
        # the weights); by root, whether one respects brackets and tau; by
        # pair of roots (a frozenset), whether two commute; and by (root,
        # blocks), the image items at the phase one
        self.rotation_tables = {}
        self.rotation_proofs = {}

    # -- structure constants --------------------------------------------------

    def _build_constants(self, ci):
        """The cells of component ci, worked out on root indices: roots[i]
        and roots[i + P] are opposite, and `RootSystem.decompositions` gives
        the sums of positive roots.  A triple sets its twelve cells at once,
        from N(v, u) = -N(u, v) = N(-u, -v) and the norms."""
        rs = self.rs
        roots = rs.roots
        P = rs._npos
        R = 2 * P
        lo, hi = rs._spans[ci]
        simple = range(lo, lo + rs.shape.simples[ci].rank)
        norm = rs._norms                # L (r, r), an integer
        tab = self.n_table
        # minus[s][x] = x - roots[s], for the simple roots s
        minus = {s: {} for s in simple}

        def set_triple(a, b, c, n):
            """Record N for every ordered pair built from {+-a, +-b, -+c},
            with c = a + b."""
            r1, rem1 = divmod(n * norm[a], norm[c])    # value for (b, -c)
            r2, rem2 = divmod(n * norm[b], norm[c])    # value for (-c, a)
            if rem1 or rem2:
                raise AssertionError("non-integral structure constant on "
                                     "(%s, %s)" % (roots[a], roots[b]))
            na, nb, nc = a + P, b + P, c + P
            tab[a * R + b] = tab[nb * R + na] = n
            tab[b * R + a] = tab[na * R + nb] = -n
            tab[b * R + nc] = tab[c * R + nb] = r1
            tab[nc * R + b] = tab[nb * R + c] = -r1
            tab[nc * R + a] = tab[na * R + c] = r2
            tab[a * R + nc] = tab[c * R + na] = -r2

        # the simple roots come first in index order; every other positive
        # root c is alpha + b for a simple alpha, so the first a of c's
        # decompositions is simple
        for c in range(simple.stop, hi):
            specials = rs.decompositions(c)
            if not specials:
                raise AssertionError("non-simple root %s with no "
                                     "decomposition" % (roots[c],))
            for a, b in specials:
                if a in minus:
                    minus[a][c] = b
                if b in minus:
                    minus[b][c] = a
            a0, b0 = specials[0]
            set_triple(a0, b0, c,
                       1 - rs.root_string(roots[b0], roots[a0])[0])
            # the Jacobi identity on E_x, E_y, E_-a0 for x + y = c, with
            # N(-a0, x) = -N(x, -a0)
            down = minus[a0]
            na0 = a0 + P
            for x, y in specials[1:]:
                t = 0
                xm = down.get(x)
                if xm is not None:
                    t -= tab[x * R + na0] * tab[xm * R + y]
                ym = down.get(y)
                if ym is not None:
                    t += tab[y * R + na0] * tab[ym * R + x]
                denom = tab[c * R + na0]
                if t % denom:
                    raise AssertionError("Jacobi forces a non-integral "
                                         "constant on (%s, %s)"
                                         % (roots[x], roots[y]))
                set_triple(x, y, c, -t // denom)

    def _coroot_coords(self, r: Root):
        """H_r = sum m_i (d_i / d_r) H_i as an integer global h-vector, with
        d_i / d_r = 2 (L d_i) / (L (r, r))."""
        rs = self.rs
        ld = rs._ldvecs[r.comp]
        lnorm = rs._norms[rs.index[r]]
        off = self.offsets[r.comp]
        out = [0] * self.total_rank
        for i, m in enumerate(r.coords):
            if m:
                v, rem = divmod(2 * m * ld[i], lnorm)
                if rem:
                    raise AssertionError("coroot of %s has a non-integral "
                                         "coordinate" % (r,))
                out[off + i] = v
        return tuple(out)

    # -- element constructors --------------------------------------------------

    def zero(self):
        return AlgebraElement(self, {}, {})

    def E(self, root, coeff=ONE):
        if root not in self.rs.root_set:
            raise ValueError("not a root: %s" % (root,))
        coeff = TowerScalar.of(coeff)
        return AlgebraElement(self, {}, {root: coeff} if coeff else {})

    def N(self, a: Root, b: Root) -> int:
        """The structure constant with [E_a, E_b] = N(a, b) E_(a+b);
        KeyError unless a + b is a root."""
        index = self.rs.index
        n = self.n_table[index[a] * len(index) + index[b]]
        if not n:
            raise KeyError((a, b))
        return n

    def H_vec(self, vec):
        """The Cartan element with this dense coordinate vector."""
        if len(vec) != self.total_rank:
            raise ValueError("need %d Cartan coordinates, got %d"
                             % (self.total_rank, len(vec)))
        cartan = {j: c for j, c in enumerate(map(TowerScalar.of, vec)) if c}
        return AlgebraElement(self, cartan, {})

    def H_of_root(self, root):
        return self.H_vec(self.hroot[root])

    @cached_property
    def basis(self) -> tuple:
        """The basis vectors in `basis_keys` order, made once and shared, as
        no operation changes an element in place."""
        return tuple(map(self.basis_element, self.basis_keys))

    def basis_element(self, key):
        kind, val = key
        if kind == "e":
            return self.E(val)
        if kind == "h" and 0 <= val < self.total_rank:
            return AlgebraElement(self, {val: ONE}, {})
        raise ValueError("not a basis key: %r" % (key,))

    # compact generators attached to a root; X and Y raise ValueError unless
    # the phase rho has modulus one
    def W(self, gamma):
        return self.H_of_root(gamma).scale(I * HALF)

    def X(self, gamma, rho=ONE):
        rho = _unit_phase(rho)
        return AlgebraElement(self, {},
                              {gamma: rho * HALF, -gamma: -rho.conj() * HALF})

    def Y(self, gamma, rho=ONE):
        rho = _unit_phase(rho)
        ih = I * HALF
        return AlgebraElement(self, {},
                              {gamma: rho * ih, -gamma: rho.conj() * ih})

    # -- operations --------------------------------------------------------------

    def eval_root(self, alpha: Root, cartan: dict) -> TowerScalar:
        """alpha(h) for a sparse Cartan part h, {slot: coefficient}, as
        `AlgebraElement.cartan` holds it."""
        pairing = self.pairings[alpha]
        acc = ZERO
        for j, v in cartan.items():
            p = pairing.get(j)
            if p:
                acc = acc + v * p
        return acc

    def bracket(self, x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
        if x.cb is not self or y.cb is not self:
            raise ValueError("elements come from different bases")
        rs = self.rs
        index = rs.index
        roots = rs.roots
        codes = rs._codes
        P = rs._npos
        tab = self.n_table
        ye = y.e
        h = {}
        e = {}
        for a, ca in x.e.items():
            i = index[a]
            at = i * 2 * P
            for b, cb2 in ye.items():
                j = index[b]
                n = tab[at + j]
                if n:       # a + b is a root of a's component
                    s = roots[rs._at[a.comp][codes[i] + codes[j]]]
                    e[s] = e.get(s, ZERO) + ca * cb2 * n
            cb2 = ye.get(roots[i - P if i >= P else i + P])
            if cb2 is not None:           # [E_a, E_-a] = H_a
                coef = ca * cb2
                for j, m in enumerate(self.hroot[a]):
                    if m:
                        h[j] = h.get(j, ZERO) + coef * m
        if x.cartan:
            for b, cb2 in ye.items():
                w = self.eval_root(b, x.cartan)
                if w:
                    e[b] = e.get(b, ZERO) + w * cb2
        if y.cartan:
            for a, ca in x.e.items():
                w = self.eval_root(a, y.cartan)
                if w:
                    e[a] = e.get(a, ZERO) - w * ca
        if h:
            h = {j: c for j, c in h.items() if c}
        if e:
            e = {r: c for r, c in e.items() if c}
        return AlgebraElement(self, h, e)

    def combine(self, terms) -> AlgebraElement:
        """The sum of c * x over the (c, x) pairs in terms."""
        h = {}
        e = {}
        for c, x in terms:
            if x.cb is not self:
                raise ValueError("element from another basis")
            for r, v in x.e.items():
                e[r] = e.get(r, ZERO) + c * v
            for j, v in x.cartan.items():
                h[j] = h.get(j, ZERO) + c * v
        return AlgebraElement(self, {j: v for j, v in h.items() if v},
                              {r: v for r, v in e.items() if v})

    def tau(self, x: AlgebraElement) -> AlgebraElement:
        """The compact conjugation: E_a -> -E_{-a}, antilinear, -conj on h."""
        if x.cb is not self:
            raise ValueError("element from another basis")
        return AlgebraElement(self,
                              {j: -c.conj() for j, c in x.cartan.items()},
                              {-a: -c.conj() for a, c in x.e.items()})

    # -- the trace form ----------------------------------------------------------

    def _killing_h_matrix(self):
        """tr(ad H_i ad H_j) = sum of b(H_i) b(H_j) over the roots b, and the
        identity on the center; integer entries."""
        n = self.total_rank
        K = [[0] * n for _ in range(n)]
        for ci in range(len(self.rs.shape.simples)):
            off = self.offsets[ci]
            rank = self.rs.shape.simples[ci].rank
            # column j: b(H_j) over the roots b of this component
            cols = list(zip(*(p for b, p in self.rs._pairings.items()
                              if b.comp == ci)))
            for i in range(rank):
                for j in range(i, rank):
                    s = sum(map(mul, cols[i], cols[j]))
                    K[off + i][off + j] = s
                    K[off + j][off + i] = s
        for j in range(self.semisimple_rank, n):
            K[j][j] = 1
        return K


@lru_cache(maxsize=None)
def make_basis(shape: ReductiveShape) -> ChevalleyBasis:
    return ChevalleyBasis(build_cached(shape))


def verify_special_sign_identity(cb: ChevalleyBasis, stem) -> CheckReport:
    """For every stem root g and every two-wing decomposition a + b = g, the
    product N(g,-a) N(g,-b) must be exactly -1 (the sign pattern that squares
    the wing half of the second complex structure to -1)."""
    rep = CheckReport()
    checked = 0
    bad = []
    for g in stem.elements:
        wings = stem.phi[g]
        for a in wings:
            b = cb.rs.sum(g, -a)
            if b not in wings or a.key() > b.key():
                continue
            checked += 1
            prod = cb.N(g, -a) * cb.N(g, -b)
            if prod != -1:
                bad.append("N(%s,-%s) N(%s,-%s) = %d" % (g, a, g, b, prod))
    rep.record("wing sign products equal -1", checked, bad)
    return rep
