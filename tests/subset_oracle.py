"""Root-keyed closure, components, highest roots and bases, as an oracle.

These read only coordinate addition (`construction_oracle.root_sum`) and
the set of roots `RootSystem.root_set`, the weights `RootSystem._weights`
and `Root.positive`, with hashed Root sets throughout, so they share none of
the root codes, index numbering, index rows or non-orthogonality masks that
the library's own versions run on.  They raise the same errors,
with the same messages, as the library's versions.
"""

from __future__ import annotations

from operator import mul

from construction_oracle import root_sum


def is_closed(rs, subset) -> bool:
    sub = set(subset)
    for a in sub:
        if a not in rs.root_set:
            raise ValueError("not a root: %s" % (a,))
    for a in sub:
        for b in sub:
            s = root_sum(a, b)
            if s in rs.root_set and s not in sub:
                return False
    return True


def irreducible_components(rs, subset):
    sub = set(subset)
    for a in sub:
        if -a not in sub:
            raise ValueError("subset is not symmetric: misses %s" % (-a,))
    unseen = {}
    for a in sub:
        unseen.setdefault(a.comp, set()).add(a)
    comps = []
    for pool in unseen.values():
        while pool:
            seed = pool.pop()
            group = [seed]
            for b in group:          # grows while it is walked: a BFS
                w = rs._weights[b]
                linked = [a for a in pool if sum(map(mul, a.coords, w))]
                pool.difference_update(linked)
                group.extend(linked)
            comps.append(frozenset(group))
    comps.sort(key=lambda g: min(r.key() for r in g if r.positive))
    return comps


def highest_root(rs, comp):
    pos = [r for r in comp if r.positive]
    tops = [t for t in pos if all(root_sum(t, b) not in comp for b in pos)]
    if len(tops) != 1:
        raise AssertionError("no unique maximal root in component")
    return tops[0]


def base(rs, subset):
    pos = sorted((r for r in subset if r.positive), key=lambda r: r.key())
    decomposable = {root_sum(a, b) for a in pos for b in pos} & rs.root_set
    return [t for t in pos if t not in decomposable]
