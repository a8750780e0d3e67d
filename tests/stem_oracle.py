"""Root-keyed stem checks, as an oracle for `verify_stem_properties`.

`stem_properties(stem)` runs every item of the library's stem checks, with
the same names, counts and violations in the same order, on hashed Roots:
a + b is the coordinate sum `construction_oracle.root_sum`, kept when it
lies in `RootSystem.root_set`.  So it shares none of the root codes, code
-> index maps, index rows or masks that the library's checks run on.  Its
last item re-peels every theta_g with `compute_stem`, where the library
proves most of them from the structure of the peel.
"""

from __future__ import annotations

from stemhc.reporting import CheckReport
from stemhc.rootsystems import Root
from stemhc.stem import compute_stem

from construction_oracle import root_sum


def plus(rs, a, b):
    """The root a + b, or None when a + b is not a root."""
    s = root_sum(a, b)
    return s if s in rs.root_set else None


def stem_properties(stem) -> CheckReport:
    rs = stem.rs
    rep = CheckReport()
    G = stem.elements
    block = {g: set(stem.phi[g]) | {g} for g in G}
    # g < d, the shallower root first; and every pair of distinct stem roots
    ordered = [(g, d) for g in G for d in G if stem.precedes(g, d)]
    unordered = [(g, d) for i, g in enumerate(G) for d in G[i + 1:]]

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

    bad = []
    for g, d in unordered:
        if plus(rs, g, d) is not None or plus(rs, g, -d) is not None:
            bad.append("%s, %s not strongly orthogonal" % (g, d))
        if rs.cartan_int(g, d) != 0:
            bad.append("%s, %s not orthogonal" % (g, d))
    rep.record("stem roots are strongly orthogonal", len(unordered), bad)

    checked = 0
    bad = []
    for g, d in ordered:
        for a in block[g]:
            for b in block[d]:
                for v in (plus(rs, a, b), plus(rs, a, -b)):
                    if v is None:
                        continue
                    checked += 1
                    vv = v if v.positive else -v
                    if vv not in stem.phi[g]:
                        bad.append("%s +- %s escapes wings of %s" % (a, b, g))
    rep.record("deeper blocks bracket into the shallower wings", checked, bad)

    checked = 0
    bad = []
    for g in G:
        blk = sorted(block[g], key=Root.key)
        for i, a in enumerate(blk):
            for b in blk[i + 1:]:
                s = plus(rs, a, b)
                if s is not None:
                    checked += 1
                    if s != g:
                        bad.append("%s + %s = %s inside block of %s"
                                   % (a, b, s, g))
    rep.record("sums within a block land on its stem root", checked, bad)

    checked = 0
    bad = []
    for d, g in ordered:
        for a in block[g]:
            checked += 1
            if plus(rs, a, d) is not None or plus(rs, a, -d) is not None or \
                    rs.cartan_int(a, d) != 0:
                bad.append("%s sees shallower stem root %s" % (a, d))
    rep.record("deeper blocks are orthogonal to shallower stem roots",
               checked, bad)

    checked = 0
    bad = []
    for g, d in unordered:
        if stem.comparable(g, d):
            continue
        for a in block[g]:
            for b in block[d]:
                checked += 1
                if plus(rs, a, b) is not None or plus(rs, a, -b) is not None:
                    bad.append("incomparable blocks of %s, %s interact"
                               % (g, d))
    rep.record("incomparable blocks never sum to roots", checked, bad)

    checked = 0
    bad = []
    for g in G:
        for a in stem.phi[g]:
            checked += 1
            down = plus(rs, a, -g)
            if down is None or down.positive:
                bad.append("%s - %s is not a negative root" % (a, g))
            if plus(rs, a, g) is not None:
                bad.append("%s + %s is a root" % (a, g))
            if rs.cartan_int(a, g) <= 0:
                bad.append("%s pairs nonpositively with %s" % (a, g))
    rep.record("wings descend through their stem root", checked, bad)

    mins = stem.minimal_roots()
    bad = []
    for g in G:
        if not any(g == m or stem.precedes(m, g) for m in mins):
            bad.append("%s dominates no maximal root" % (g,))
    rep.record("every stem root dominates a maximal root", len(G), bad)

    checked = 0
    bad = []
    diffs = {}
    for d in G:
        wings_d = stem.phi[d]
        diffs[d] = {plus(rs, b1, -b2) for b1 in wings_d for b2 in wings_d}
    for d, g in ordered:
        for a in block[g]:
            checked += 1
            if a not in diffs[d]:
                bad.append("%s is not a difference of wings of %s" % (a, d))
    rep.record("deeper blocks are differences within shallower wings",
               checked, bad)

    bad = []
    for g in G:
        if set(compute_stem(rs, stem.theta[g]).elements) != \
                stem.up_closure([g]):
            bad.append("stem of component of %s mismatches" % (g,))
    rep.record("component stems agree with the order filter", len(G), bad)

    return rep
