"""Root systems of reductive compact Lie algebras, in simple-root coordinates.

Roots are integer coordinate vectors over the simple roots of one irreducible
component; no Euclidean embedding is ever used here (the test suite holds the
classical e_i realizations as an independent oracle).  The Cartan matrices
follow the standard Bourbaki numbering.

Root addition is decided once, here, on integer codes, one per root, under
which the code of a sum is the sum of the codes: `RootSystem.sum(a, b)`
reads a + b off the codes of a and b and the code -> index map of their
component, and root strings, the Chevalley and structure modules call it.
The stem checks, which add roots by the tens of thousands, read the codes
and the maps themselves, through `RootSystem.code_tables`.  The positive
roots are generated along alpha_i-strings on codes.  The roots are numbered
as `RootSystem.roots` orders them, the P positive roots in `Root.key` order
and then their opposites in the same order, so roots[i] and roots[i + P]
are opposite.  Each pair a < b of positive roots whose sum c is a root
gives the twelve sums of the triples {a, b, -c} and {-a, -b, c}, gathered
into the index rows `_sum_rows` in one pass.  Closure, components, highest
roots and subsystem bases, which the stem peeling runs again and again,
walk these rows, and so does `RootSystem.decompositions`, the pairs
a + b = c of positive roots from which the stems take their wings and the
Chevalley basis its constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import add, mul, neg
from typing import NamedTuple


FAMILIES = "ABCDEFG"


class SimpleType(NamedTuple):
    family: str
    rank: int

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


def simple_type(family: str, rank: int) -> SimpleType:
    """Validated constructor; rejects out-of-range ranks.

    D2 and D3 are rejected on purpose: as root systems they are A1 x A1 and
    A3, and admitting the duplicates would break canonical naming.
    """
    family = family.upper()
    ok = (
        (family == "A" and rank >= 1)
        or (family == "B" and rank >= 2)
        or (family == "C" and rank >= 2)
        or (family == "D" and rank >= 4)
        or (family == "E" and rank in (6, 7, 8))
        or (family == "F" and rank == 4)
        or (family == "G" and rank == 2)
    )
    if not ok:
        if family == "D" and rank in (2, 3):
            raise ValueError(
                "D%d is not admitted (isomorphic to %s); use the A-form"
                % (rank, "A1 x A1" if rank == 2 else "A3"))
        raise ValueError("no simple type %s%s" % (family, rank))
    return SimpleType(family, rank)


@dataclass(frozen=True)
class ReductiveShape:
    """An abelian center of dimension center_dim plus ordered simple factors."""
    center_dim: int
    simples: tuple

    def __post_init__(self):
        if self.center_dim < 0:
            raise ValueError("negative center dimension")
        for t in self.simples:
            simple_type(t.family, t.rank)

    @property
    def rank(self):
        return self.center_dim + sum(t.rank for t in self.simples)

    def __str__(self):
        parts = []
        if self.center_dim:
            parts.append("c^%d" % self.center_dim)
        parts.extend(str(t) for t in self.simples)
        return " x ".join(parts) if parts else "0"


def shape(*simples, center_dim=0) -> ReductiveShape:
    return ReductiveShape(center_dim, tuple(simples))


def _ascii_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_shape(text: str) -> ReductiveShape:
    """Parse 'c^2 x A3 x D5' style shape descriptions; exponents and ranks
    are ASCII decimal numerals, with no sign."""
    center = 0
    simples = []
    s = text.strip()
    if not s or s == "0":
        return ReductiveShape(0, ())
    for token in s.split("x"):
        token = token.strip()
        if not token:
            raise ValueError("empty factor in shape %r" % text)
        if token.startswith("c"):
            if token == "c":
                center += 1
                continue
            if token.startswith("c^") and _ascii_digits(token[2:]):
                center += int(token[2:])
                continue
            raise ValueError("bad center factor %r" % token)
        fam, num = token[0].upper(), token[1:]
        if fam not in FAMILIES or not _ascii_digits(num):
            raise ValueError("bad simple factor %r" % token)
        simples.append(simple_type(fam, int(num)))
    return ReductiveShape(center, tuple(simples))


# ---------------------------------------------------------------------------
# Cartan data, Bourbaki numbering


def cartan_matrix(t: SimpleType):
    """Integer Cartan matrix C[i][j] = <alpha_i, alpha_j^vee>."""
    n = t.rank
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j):
        C[i][j] = -1
        C[j][i] = -1

    if t.family == "A":
        for i in range(n - 1):
            edge(i, i + 1)
    elif t.family == "B":
        for i in range(n - 2):
            edge(i, i + 1)
        C[n - 2][n - 1] = -2       # alpha_{n-1} long, alpha_n short
        C[n - 1][n - 2] = -1
    elif t.family == "C":
        for i in range(n - 2):
            edge(i, i + 1)
        C[n - 2][n - 1] = -1       # alpha_n long
        C[n - 1][n - 2] = -2
    elif t.family == "D":
        for i in range(n - 3):
            edge(i, i + 1)
        edge(n - 3, n - 2)
        edge(n - 3, n - 1)
    elif t.family == "E":
        # nodes 1..n with Bourbaki edges {1,3},{3,4},{4,5},{5,6},{2,4},...
        pairs = [(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)]
        if n >= 7:
            pairs.append((6, 7))
        if n == 8:
            pairs.append((7, 8))
        for a, b in pairs:
            edge(a - 1, b - 1)
    elif t.family == "F":
        edge(0, 1)
        C[1][2] = -2               # alpha_1, alpha_2 long
        C[2][1] = -1
        edge(2, 3)
    elif t.family == "G":
        C[0][1] = -1               # alpha_1 short
        C[1][0] = -3
    return C


def norm_halves(t: SimpleType):
    """d_i = (alpha_i, alpha_i)/2, scaled to match the classical e_i
    realizations: d = 1 on the long roots of B and F, but on the short roots
    of C (d_n = 2) and G (d = [1, 3]); simply laced types have all d = 1."""
    n = t.rank
    one = Fraction(1)
    if t.family in ("A", "D", "E"):
        return [one] * n
    if t.family == "B":
        return [one] * (n - 1) + [Fraction(1, 2)]
    if t.family == "C":
        return [one] * (n - 1) + [Fraction(2)]
    if t.family == "F":
        return [one, one, Fraction(1, 2), Fraction(1, 2)]
    if t.family == "G":
        return [one, Fraction(3)]
    raise AssertionError(t)


_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
    "F": lambda n: 48,
    "G": lambda n: 12,
}

# how many simple roots are shorter than the longest one
_SHORT_SIMPLES = {
    "A": lambda n: 0,
    "B": lambda n: 1,
    "C": lambda n: n - 1,
    "D": lambda n: 0,
    "E": lambda n: 0,
    "F": lambda n: 2,
    "G": lambda n: 1,
}


# ---------------------------------------------------------------------------
# Roots


class Root(NamedTuple):
    comp: int
    coords: tuple

    @property
    def height(self):
        return sum(self.coords)

    @property
    def positive(self):
        return self.height > 0

    def __neg__(self):
        opp = _OPPOSITES.get(self)
        if opp is None:
            return Root(self.comp, tuple(-c for c in self.coords))
        return opp

    def key(self):
        return (self.comp, self.height, self.coords)

    def __str__(self):
        return "%d:(%s)" % (self.comp, ",".join(map(str, self.coords)))


# root -> its opposite, keyed by value over the roots of every RootSystem
# built so far; each build stores its own objects, so right after it -r is
# the stored opposite of rs.roots.  Equal roots of two systems have equal
# opposites, so a later build only swaps which equal object comes back.
_OPPOSITES = {}


def _bits(m):
    """The positions of the set bits of the integer m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


# A root of a simple type has coordinates in [-6, 6] (only E8's highest root
# reaches 6), so a sum of two roots has them in [-12, 12]: coding a root as
# sum c_k _BASE^k makes the code of a sum the sum of the codes, and no two
# such sums share a code.
_BASE = 25


class RootSystem:
    """The root system of a ReductiveShape, built once, queried a lot."""

    def __init__(self, shape: ReductiveShape):
        self.shape = shape
        self.cartans = [cartan_matrix(t) for t in shape.simples]
        self.dvecs = [norm_halves(t) for t in shape.simples]
        self.positives = []
        for ci, t in enumerate(shape.simples):
            pos = self._generate_positives(ci, t)
            expected = _ROOT_COUNTS[t.family](t.rank) // 2
            if len(pos) != expected:
                raise AssertionError("%s has %d positive roots, expected %d"
                                     % (t, len(pos), expected))
            self.positives.extend(pos)
        self.positives.sort(key=Root.key)
        negatives = tuple(Root(r.comp, tuple(map(neg, r.coords)))
                          for r in self.positives)
        self.roots = roots = tuple(self.positives) + negatives
        self.root_set = frozenset(roots)
        # roots[i] and roots[i + P] are opposite, with P positive roots
        self._npos = P = len(negatives)
        self.index = {r: i for i, r in enumerate(roots)}
        _OPPOSITES.update(zip(self.positives, negatives))
        _OPPOSITES.update(zip(negatives, self.positives))
        # alpha(H_j) for every root alpha and simple coroot H_j of its
        # component, and L * d_j * alpha(H_j), with L = _scales[comp] the
        # common denominator of the d_j of alpha's component: beta . w_alpha
        # = L (beta, alpha); both are linear in alpha, so -alpha negates them
        columns = [tuple(zip(*C)) for C in self.cartans]
        pairings = [tuple(sum(map(mul, r.coords, col))
                          for col in columns[r.comp]) for r in self.positives]
        self._pairings = dict(zip(roots, pairings + [
            tuple(map(neg, p)) for p in pairings]))
        self._scales = [lcm(*(dj.denominator for dj in d)) for d in self.dvecs]
        # L * d_j as integers, per component
        self._ldvecs = [tuple(int(L * dj) for dj in d)
                        for L, d in zip(self._scales, self.dvecs)]
        weights = [tuple(map(mul, self._ldvecs[r.comp], p))
                   for r, p in zip(self.positives, pairings)]
        self._weights = dict(zip(roots, weights + [
            tuple(map(neg, w)) for w in weights]))
        # L (r, r), an integer, by index; -r has the norm of r
        norms = [sum(map(mul, r.coords, w))
                 for r, w in zip(self.positives, weights)]
        self._norms = norms + norms
        steps = [_BASE ** k for k in range(max(
            (t.rank for t in shape.simples), default=0))]
        codes = [sum(map(mul, r.coords, steps)) for r in self.positives]
        self._codes = codes = codes + [-c for c in codes]
        # the positive roots of component ci are roots[lo:hi], (lo, hi) =
        # _spans[ci], as Root.key orders by component first
        comps = [r.comp for r in self.positives]
        self._spans = [(comps.index(ci), comps.index(ci) + comps.count(ci))
                       for ci in range(len(shape.simples))]
        # reducedness: 2*alpha is never a root.  The sums below rest on it:
        # then a + b = c never has a = b, so every sum of two roots is an
        # ordered pair of exactly one zero-sum triple {a, b, -c} or its
        # negative, with a < b positive and c = a + b.
        for lo, hi in self._spans:
            known = set(codes[lo:hi])
            for i in range(lo, hi):
                if 2 * codes[i] in known:
                    raise AssertionError("not reduced: twice %s is a root"
                                         % (roots[i],))
        # the index rows hold the sums by index, each pair once, as a + b =
        # b + a: _sum_rows[i] is the flat tuple (j, k, j', k', ...) of the
        # roots[i] + roots[j] = roots[k] with j > i, in the order of j, so a
        # positive root's row meets the positive roots first.  _at[ci] maps
        # the code of each root of component ci to its index.
        self._sum_rows = [()] * (2 * P)
        self._at = [self._fill_sums(lo, hi) for lo, hi in self._spans]

    # -- construction --------------------------------------------------------

    def _generate_positives(self, ci, t: SimpleType):
        """The positive roots of component ci, of type t, height by height:
        a + alpha_i is a root exactly when p - a(H_i) > 0, with p the length
        of the alpha_i-string below a.  The strings are walked on codes, and
        each root carries its pairing vector (a(H_j))_j, to which adding
        alpha_i adds row i of the Cartan matrix."""
        n = t.rank
        C = self.cartans[ci]
        steps = [_BASE ** i for i in range(n)]
        units = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        known = set(steps)
        layer = list(zip(units, steps, map(tuple, C)))
        out = list(units)
        while layer:
            nxt = []
            for coords, code, pairs in layer:
                for i, step in enumerate(steps):
                    # p = how far the alpha_i-string continues below a
                    p = 0
                    v = code - step
                    while v in known:
                        p += 1
                        v -= step
                    up = code + step
                    if p > pairs[i] and up not in known:
                        known.add(up)
                        nxt.append((tuple(map(add, coords, units[i])), up,
                                    tuple(map(add, pairs, C[i]))))
            out += [coords for coords, _, _ in nxt]
            layer = nxt
        return [Root(ci, coords) for coords in out]

    def _fill_sums(self, lo, hi):
        """The rows of `_sum_rows` of one component, whose positive roots
        are roots[lo:hi], and its code -> index map, which it returns.

        Each pair a < b of positive roots with a + b = c a root gives the
        twelve sums of the triples {a, b, -c} and {-a, -b, c}.  As c is
        higher than b, a < b < c < a + P < b + P < c + P, and four of those
        sums roots[i] + roots[j] have j > i: each row first gathers its j,
        and then reads the sums off the codes."""
        codes = self._codes
        P = self._npos
        ids = [*range(lo, hi), *range(lo + P, hi + P)]
        at = dict(zip(map(codes.__getitem__, ids), ids))
        known = set(codes[lo:hi])
        rows = {i: [] for i in ids}
        for a in range(lo, hi):
            ca = codes[a]
            for s in known.intersection(map(ca.__add__, codes[a + 1:hi])):
                b, c = at[s - ca], at[s]
                rows[a] += (b, c + P)       # a + b = c, a - c = -b
                rows[b].append(c + P)       # b - c = -a
                rows[c] += (a + P, b + P)   # c - a = b, c - b = a
                rows[a + P].append(b + P)   # -a - b = -c
        for i in ids:
            row = sorted(rows.pop(i))
            # the pairs (j, k), interleaved
            flat = [0] * (2 * len(row))
            flat[::2] = row
            ci = codes[i]
            flat[1::2] = [at[ci + codes[j]] for j in row]
            self._sum_rows[i] = tuple(flat)
        return at

    def decompositions(self, i):
        """The pairs (a, b) of positive root indices with a < b and
        roots[a] + roots[b] = roots[i], in the order of a: the entries
        (a + P, b) of the index row of i, as roots[i] - roots[a] = roots[b]
        and a + P > i for a positive i."""
        P = self._npos
        it = iter(self._sum_rows[i])
        return [(j - P, k) for j, k in zip(it, it) if j >= P and j - P < k < P]

    # -- basic queries --------------------------------------------------------

    def simple_roots(self, ci):
        n = self.shape.simples[ci].rank
        return [Root(ci, tuple(1 if j == i else 0 for j in range(n)))
                for i in range(n)]

    def sum(self, a: Root, b: Root):
        """The stored root a + b, or None when a + b is not a root (b = -a
        and roots of two components included); KeyError on a non-root."""
        index = self.index
        i, j = index[a], index[b]
        if a.comp != b.comp:
            return None
        k = self._at[a.comp].get(self._codes[i] + self._codes[j])
        return None if k is None else self.roots[k]

    def code_tables(self):
        """(codes, at), read only: codes[i] is the integer code of
        roots[i], so that the code of -a is minus that of a and the code
        of a sum of roots is the sum of their codes, and at[ci] maps the
        code of each root of component ci to its index.  Two components
        can share codes, so for roots[i] and roots[j] of component ci the
        index of their sum is at[ci].get(codes[i] + codes[j]), and roots
        of two components never sum to a root."""
        return self._codes, self._at

    def pairing(self, alpha: Root, j: int) -> int:
        """alpha(H_j) for the j-th simple coroot of alpha's component."""
        return self._pairings[alpha][j]

    def sym_form(self, a: Root, b: Root) -> Fraction:
        """Symmetric invariant form (a, b) = sum a_i b_j C[i][j] d_j.

        The per-family norm-half tables match the classical e_i realizations;
        only ratios of root lengths matter to anything computed from this.
        """
        if a.comp != b.comp:
            return Fraction(0)
        return Fraction(sum(map(mul, a.coords, self._weights[b])),
                        self._scales[a.comp])

    def cartan_int(self, alpha: Root, beta: Root) -> int:
        """alpha(H_beta) = 2 (alpha, beta) / (beta, beta); 0 across components."""
        j = self.index.get(beta)
        if j is None:
            raise ValueError("beta is not a root: %s" % (beta,))
        if alpha.comp != beta.comp:
            return 0
        v, rem = divmod(2 * sum(map(mul, alpha.coords, self._weights[beta])),
                        self._norms[j])
        if rem:
            raise AssertionError("2 (%s, %s) / (%s, %s) is not an integer"
                                 % (alpha, beta, beta, beta))
        return v

    def root_string(self, alpha: Root, beta: Root):
        """(p, q) with p <= 0 <= q such that alpha + n*beta is a root
        exactly for p <= n <= q.  Errors out at alpha = +-beta."""
        if alpha not in self.root_set or beta not in self.root_set:
            raise ValueError("root_string needs two roots")
        if alpha.comp == beta.comp and (alpha == beta or alpha == -beta):
            raise ValueError("string through alpha = +-beta is undefined")
        if alpha.comp != beta.comp:
            return (0, 0)
        p = 0
        v = self.sum(alpha, -beta)
        while v is not None:
            p -= 1
            v = self.sum(v, -beta)
        q = 0
        v = self.sum(alpha, beta)
        while v is not None:
            q += 1
            v = self.sum(v, beta)
        return (p, q)

    # -- subsets ---------------------------------------------------------------
    #
    # Each takes a set of roots, maps it to indices once and then reads the
    # index rows _sum_rows and, for components, the non-orthogonality masks
    # _links.  A non-root raises ValueError.

    def _indices(self, subset):
        """The set of indices of subset; a ValueError names the first
        non-root that set(subset) meets."""
        index = self.index
        try:
            return set(map(index.__getitem__, subset))
        except KeyError as exc:
            bad = next((r for r in set(subset) if r not in index), exc.args[0])
            raise ValueError("not a root: %s" % (bad,)) from None

    @cached_property
    def _links(self):
        """Bitmask per positive root i: bit j set when the positive roots i
        and j are not orthogonal.  A nonzero (a, b) makes a + b or a - b a
        root, and a + b = s gives 2 (a, b) = (s, s) - (a, a) - (b, b), so
        the index row of a and the integer norms decide every pair."""
        P = self._npos
        norm = self._norms
        links = [1 << i for i in range(P)]
        # the rows of the positive roots meet a + b, a - b and b - a
        for i in range(P):
            it = iter(self._sum_rows[i])
            n = norm[i]
            for j, k in zip(it, it):
                if norm[k] != n + norm[j]:
                    j %= P
                    links[i] |= 1 << j
                    links[j] |= 1 << i
        return links

    def is_closed(self, subset) -> bool:
        """Closed under addition of roots: a,b in S, a+b a root => a+b in S.
        Raises ValueError when S holds something that is not a root."""
        ids = self._indices(subset)
        rows = self._sum_rows
        for i in ids:
            it = iter(rows[i])
            for j, k in zip(it, it):
                if j in ids and k not in ids:
                    return False
        return True

    def irreducible_components(self, subset):
        """Partition a symmetric subset by the non-orthogonality relation.

        Returns frozensets sorted by their minimal positive root; raises when
        the subset is not symmetric.
        """
        P = self._npos
        try:
            mask = sum(1 << i for i in self._indices(subset))
        except ValueError:
            mask = -1
        pool = mask & ((1 << P) - 1)     # the positive roots, to be grouped
        if mask >> P != pool:
            # the symmetry error comes first, as a non-root may lack its -a
            sub = set(subset)
            for a in sub:
                if -a not in sub:
                    raise ValueError("subset is not symmetric: misses %s"
                                     % (-a,))
            self._indices(sub)
        links = self._links
        roots = self.roots
        comps = []
        # seeding at the lowest index left finds the components in the order
        # of their minimal positive roots
        while pool:
            seed = (pool & -pool).bit_length() - 1
            pool ^= 1 << seed
            group = [seed]
            for b in group:              # grows while it is walked: a BFS
                linked = links[b] & pool
                pool ^= linked
                group.extend(_bits(linked))
            comps.append(frozenset([roots[i] for i in group]
                                   + [roots[i + P] for i in group]))
        return comps

    def highest_root(self, comp):
        """The unique maximal positive root of one irreducible component (a
        set, as `irreducible_components` returns it) of a closed symmetric
        subsystem."""
        P = self._npos
        pos = {i for i in self._indices(comp) if i < P}
        rows = self._sum_rows
        tops = set(pos)
        for i in pos:
            it = iter(rows[i])
            for j, k in zip(it, it):
                if j >= P:
                    break
                if j in pos and k in pos:       # neither is maximal
                    tops.discard(i)
                    tops.discard(j)
        if len(tops) != 1:
            raise AssertionError("no unique maximal root in component")
        return self.roots[tops.pop()]

    def base(self, subset):
        """The simple roots of a closed symmetric subsystem: its positive
        roots that are not a sum of two of its positive roots, sorted by
        `Root.key`.  There are as many as the subsystem's rank."""
        P = self._npos
        pos = sorted(i for i in self._indices(subset) if i < P)
        posset = set(pos)
        rows = self._sum_rows
        decomposable = set()
        for i in pos:
            it = iter(rows[i])
            for j, k in zip(it, it):
                if j >= P:
                    break
                if j in posset:
                    decomposable.add(k)
        return [self.roots[i] for i in pos if i not in decomposable]

    def component_type(self, subset) -> SimpleType:
        """The isomorphism type of a closed irreducible symmetric subsystem.

        An irreducible reduced root system is fixed by its rank, its number
        of roots and its number of short simple roots; only B2 and C2 share
        all three, and the family order names them B2.  Raises ValueError on
        an empty or reducible subset.
        """
        simples = self.base(subset)
        if len(self.irreducible_components(
                simples + [-a for a in simples])) != 1:
            raise ValueError("subset is empty or reducible")
        n = len(simples)
        norms = [self._norms[self.index[a]] for a in simples]
        short = len(norms) - norms.count(max(norms))
        count = len(set(subset))
        for f in FAMILIES:
            try:
                t = simple_type(f, n)
            except ValueError:
                continue
            if (_ROOT_COUNTS[f](n) == count
                    and _SHORT_SIMPLES[f](n) == short):
                return t
        raise ValueError("no simple type of rank %d has %d roots and %d "
                         "short simple roots" % (n, count, short))


@lru_cache(maxsize=None)
def build_cached(shape: ReductiveShape) -> RootSystem:
    return RootSystem(shape)
