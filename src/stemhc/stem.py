"""Stems: the canonical strongly orthogonal families obtained by repeatedly
peeling highest roots and their wings off a root system.

For a positive root zeta the wing set is
    Phi_zeta^+ = { beta in Delta^+ : zeta - beta in Delta^+ },
always taken with respect to the full positive system.  The stem Gamma is what
the peeling leaves behind as the removed highest roots; Delta^+ splits as the
disjoint union of Gamma and all wing sets.  The wings of zeta are the roots
of its decompositions zeta = a + b into positive roots, which
`RootSystem.decompositions` lists.

`verify_stem_properties` checks the facts about the stem that the
construction relies on.  Its items run on root indices and the integer root
codes of `RootSystem.code_tables`, never on `RootSystem.sum`; the tests hold
the Root-keyed loops as an oracle (`tests/stem_oracle.py`), and Kostant's
cascade, which gives the stem from the Dynkin diagram alone
(`tests/cascade_oracle.py`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .reporting import CheckReport
from .rootsystems import ReductiveShape, Root, RootSystem, build_cached


def phi_plus_set(rs: RootSystem, zeta: Root):
    """Wing set of a positive root, w.r.t. the full positive system."""
    i = rs.index.get(zeta)
    if i is None or i >= len(rs.positives):
        raise ValueError("zeta must be a positive root: %s" % (zeta,))
    # both roots of each decomposition zeta = a + b, added in index order,
    # as the order in which the set iterates follows it
    roots = rs.roots
    return {roots[j] for j in sorted(j for ab in rs.decompositions(i)
                                     for j in ab)}


@dataclass
class Stem:
    rs: RootSystem
    elements: tuple          # peeling order: maximal roots first
    phi: dict                # stem root -> frozenset of positive wings
    theta: dict              # stem root -> its full peeled component
    stage_of: dict           # stem root -> peeling stage (0-based)

    def index(self, g: Root) -> int:
        """1-based position in the canonical order."""
        return self.elements.index(g) + 1

    def precedes(self, g: Root, d: Root) -> bool:
        """g < d in the stem order, i.e. d lies inside Theta_g."""
        return d != g and d in self.theta[g]

    def comparable(self, g, d):
        return g == d or self.precedes(g, d) or self.precedes(d, g)

    def up_closure(self, subset):
        stem_roots = set(self.elements)
        out = set()
        for g in subset:
            if g not in self.theta:
                raise ValueError("not a stem root: %s" % (g,))
            out.add(g)
            out |= self.theta[g] & stem_roots
        return frozenset(out)

    def minimal_roots(self):
        """The stage-0 elements: exactly the highest roots of the components
        (the minimal elements of the stem order)."""
        return tuple(g for g in self.elements if self.stage_of[g] == 0)

    def hasse_edges(self):
        """Covering pairs (g, d) with g < d, arrows pointing deeper."""
        out = []
        for g in self.elements:
            for d in self.elements:
                if not self.precedes(g, d):
                    continue
                if any(self.precedes(g, m) and self.precedes(m, d)
                       for m in self.elements):
                    continue
                out.append((g, d))
        return out

    @property
    def srank(self):
        return 2 * len(self.elements)


def compute_stem(rs: RootSystem, subset=None) -> Stem:
    """Peel highest roots stage by stage.

    Components at each stage are processed in canonical order (ascending
    minimal positive root), so the element list is a fixed linear extension of
    the stem order with the maximal roots of the algebra first.
    """
    remaining = set(rs.roots) if subset is None else set(subset)
    # symmetry is checked by irreducible_components; every later stage is
    # checked for closure as it is left behind
    if not rs.is_closed(remaining):
        raise ValueError("subset is not closed")
    elements = []
    phi = {}
    theta = {}
    stage_of = {}
    stage = 0
    while remaining:
        comps = rs.irreducible_components(remaining)
        peel = []
        for comp in comps:
            g = rs.highest_root(comp)
            wings = phi_plus_set(rs, g)
            if not wings <= comp:
                raise ValueError("wings of %s leave its component" % (g,))
            elements.append(g)
            theta[g] = comp
            phi[g] = frozenset(wings)
            stage_of[g] = stage
            peel.append((g, wings))
        for g, wings in peel:
            for r in wings | {g}:
                remaining.discard(r)
                remaining.discard(-r)
        if remaining and not rs.is_closed(remaining):
            raise AssertionError("peeling remainder is not closed")
        stage += 1
    stem = Stem(rs, tuple(elements), phi, theta, stage_of)
    # the defining partition, checked on every build
    if subset is None:
        seen = {}
        for g in stem.elements:
            for r in set(stem.phi[g]) | {g}:
                if r in seen:
                    raise AssertionError("wing blocks overlap")
                seen[r] = g
        if len(seen) != len(rs.positives):
            raise AssertionError("wing blocks miss roots")
    return stem


@lru_cache(maxsize=None)
def stem_of(shape: ReductiveShape) -> Stem:
    return compute_stem(build_cached(shape))


def verify_stem_properties(stem: Stem) -> CheckReport:
    """Exhaustively check the structural facts the construction relies on.

    The checks run on root indices and integer root codes
    (`RootSystem.code_tables`): a + b and a - b are each one lookup of the
    code of a plus or minus that of b in the code -> index map of the
    component of a, once b is known to lie in that component, as two
    components can share codes.  The blocks are walked in the order of
    their Root sets, so the violations come in the order of a Root-keyed
    walk, and the tests keep such a walk as an oracle."""
    rs = stem.rs
    codes, at = rs.code_tables()
    index = rs.index
    roots = rs.roots
    P = len(rs.positives)
    rep = CheckReport()
    G = stem.elements
    block = {g: set(stem.phi[g]) | {g} for g in G}
    # each block as (index, code, component) triples, in the order of its set
    coded = {g: [(i, codes[i], roots[i].comp)
                 for i in map(index.__getitem__, block[g])] for g in G}
    # g < d, the shallower root first; and every pair of distinct stem roots
    ordered = [(g, d) for g in G for d in G if stem.precedes(g, d)]
    unordered = [(g, d) for i, g in enumerate(G) for d in G[i + 1:]]

    # partition of the positive system
    bad = []
    seen = set()
    for g in G:
        if seen & block[g]:
            bad.append("block of %s overlaps" % (g,))
        seen |= block[g]
        if len(stem.phi[g]) % 2 != 0:
            bad.append("odd wing count at %s" % (g,))
    if seen != set(rs.positives):
        bad.append("blocks do not cover the positive roots")
    rep.record("wing blocks partition the positive system",
               sum(map(len, block.values())), bad)

    # strong orthogonality of the stem
    bad = []
    for g, d in unordered:
        cg, cd = codes[index[g]], codes[index[d]]
        if g.comp == d.comp and (cg + cd in at[g.comp] or
                                 cg - cd in at[g.comp]):
            bad.append("%s, %s not strongly orthogonal" % (g, d))
        if rs.cartan_int(g, d) != 0:
            bad.append("%s, %s not orthogonal" % (g, d))
    rep.record("stem roots are strongly orthogonal", len(unordered), bad)

    # comparable pairs: sums/differences fall into the shallower wing set
    checked = 0
    bad = []
    for g, d in ordered:
        wings = {index[r] for r in stem.phi[g]}
        for a, ca, x in coded[g]:
            code_at = at[x]
            for b, cb, y in coded[d]:
                if y != x:
                    continue
                for k in (code_at.get(ca + cb), code_at.get(ca - cb)):
                    if k is None:
                        continue
                    checked += 1
                    if (k if k < P else k - P) not in wings:
                        bad.append("%s +- %s escapes wings of %s"
                                   % (roots[a], roots[b], g))
    rep.record("deeper blocks bracket into the shallower wings", checked, bad)

    # sums inside one block only ever produce the stem root
    checked = 0
    bad = []
    for g in G:
        top = index[g]
        blk = [index[r] for r in sorted(block[g], key=Root.key)]
        for n, a in enumerate(blk):
            ca, x = codes[a], roots[a].comp
            for b in blk[n + 1:]:
                s = at[x].get(ca + codes[b]) if roots[b].comp == x else None
                if s is not None:
                    checked += 1
                    if s != top:
                        bad.append("%s + %s = %s inside block of %s"
                                   % (roots[a], roots[b], roots[s], g))
    rep.record("sums within a block land on its stem root", checked, bad)

    # deeper blocks are invisible to shallower stem roots
    checked = 0
    bad = []
    for d, g in ordered:
        cd = codes[index[d]]
        for a, ca, x in coded[g]:
            checked += 1
            if x == d.comp and (ca + cd in at[x] or ca - cd in at[x]) or \
                    rs.cartan_int(roots[a], d) != 0:
                bad.append("%s sees shallower stem root %s" % (roots[a], d))
    rep.record("deeper blocks are orthogonal to shallower stem roots",
               checked, bad)

    # incomparable stem roots: blocks never interact
    checked = 0
    bad = []
    for g, d in unordered:
        if stem.comparable(g, d):
            continue
        other = coded[d]
        for a, ca, x in coded[g]:
            code_at = at[x]
            checked += len(other)
            for b, cb, y in other:
                if y == x and (ca + cb in code_at or ca - cb in code_at):
                    bad.append("incomparable blocks of %s, %s interact"
                               % (g, d))
    rep.record("incomparable blocks never sum to roots", checked, bad)

    # wings descend through their stem root
    checked = 0
    bad = []
    for g in G:
        cg, x = codes[index[g]], g.comp
        for r in stem.phi[g]:
            checked += 1
            a = index[r]
            down = up = None
            if roots[a].comp == x:
                down = at[x].get(codes[a] - cg)
                up = at[x].get(codes[a] + cg)
            if down is None or down < P:
                bad.append("%s - %s is not a negative root" % (r, g))
            if up is not None:
                bad.append("%s + %s is a root" % (r, g))
            if rs.cartan_int(r, g) <= 0:
                bad.append("%s pairs nonpositively with %s" % (r, g))
    rep.record("wings descend through their stem root", checked, bad)

    # every stem root sits over some highest root of the full system
    mins = stem.minimal_roots()
    bad = []
    for g in G:
        if not any(g == m or stem.precedes(m, g) for m in mins):
            bad.append("%s dominates no maximal root" % (g,))
    rep.record("every stem root dominates a maximal root", len(G), bad)

    # deeper blocks are differences of shallower wings: a = b1 - b2 for
    # wings b1, b2 of d exactly when a + b2 is a wing b1, in a's component
    checked = 0
    bad = []
    wing_codes = {}
    for d in G:
        by_comp = wing_codes[d] = {}
        for i in map(index.__getitem__, stem.phi[d]):
            by_comp.setdefault(roots[i].comp, set()).add(codes[i])
    for d, g in ordered:
        by_comp = wing_codes[d]
        for a, ca, x in coded[g]:
            checked += 1
            wings = by_comp.get(x, frozenset())
            if wings.isdisjoint(map(ca.__add__, wings)):
                bad.append("%s is not a difference of wings of %s"
                           % (roots[a], d))
    rep.record("deeper blocks are differences within shallower wings",
               checked, bad)

    # the stem of a peeled component is the part of the stem above its root:
    # compute_stem(rs, theta_g) takes the stem roots in theta_g.  Where the
    # peel's structure does not prove it, theta_g is re-peeled and compared,
    # so the violations and the count are those of re-peeling every theta_g.
    bad = []
    repeel = {}
    for d in reversed(G):               # deeper stem roots first
        repeel[d] = _proved_repeel(stem, d, repeel)
    for g in G:
        expected = stem.up_closure([g])
        if repeel[g] != expected and \
                set(compute_stem(rs, stem.theta[g]).elements) != expected:
            bad.append("stem of component of %s mismatches" % (g,))
    rep.record("component stems agree with the order filter", len(G), bad)

    return rep


def _proved_repeel(stem: Stem, d: Root, repeel: dict):
    """The set of stem roots that compute_stem(rs, theta_d) takes, proved
    from the peel's structure, or None where the proof fails.  repeel holds
    the results for the stem roots after d in the peel order.

    Induction on the depth below d.  Let theta_d be closed and irreducible
    with highest root d, let the wings of d (phi_plus_set, which the re-peel
    takes) lie in theta_d, and let rest_d, theta_d without the +-block of d,
    be closed and split into exactly the theta_e of the stem roots e one
    stage deeper inside theta_d, each proved.  The re-peel of theta_d then
    takes d first, is left with rest_d, and peels each theta_e as its own
    re-peel would.  It does so stage by stage, as one set, with no mixing:
    the theta_e are distinct components of the closed set rest_d, so their
    roots are orthogonal across them, and a union of the remainders inside
    them stays closed, because a + b with a, b in distinct components of a
    closed set is never a root (it would lie in the set and be non-orthogonal
    to both a and b, joining their components).  So it takes d and the
    stem roots each re-peel of a theta_e takes.
    """
    rs = stem.rs
    theta = stem.theta[d]
    try:
        if not rs.is_closed(theta) or \
                len(rs.irreducible_components(theta)) != 1 or \
                rs.highest_root(theta) != d:
            return None
        wings = phi_plus_set(rs, d)
        if not wings.issubset(theta):
            return None
        rest = set(theta)
        for r in wings | {d}:
            rest.discard(r)
            rest.discard(-r)
        if not rs.is_closed(rest):
            return None
        comps = rs.irreducible_components(rest)
    except (ValueError, AssertionError):
        return None
    deeper = [e for e in stem.elements
              if stem.stage_of[e] == stem.stage_of[d] + 1 and e in theta]
    # a proved theta_e has highest root e, so distinct e give distinct theta_e
    if len(deeper) != len(comps) or \
            any(repeel.get(e) is None or stem.theta[e] not in comps
                for e in deeper):
        return None
    return {d}.union(*(repeel[e] for e in deeper))


def hasse_export(stem: Stem) -> str:
    """The stem order as a DOT digraph; arrows point from a stem root to the
    roots directly above it (deeper in the peeling)."""
    lines = ["digraph stem {"]
    for i, g in enumerate(stem.elements, 1):
        lines.append('  g%d [label="g%d = %s"];' % (i, i, g))
    for a, b in sorted(stem.hasse_edges(),
                       key=lambda e: (stem.index(e[0]), stem.index(e[1]))):
        lines.append("  g%d -> g%d;" % (stem.index(a), stem.index(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"
