"""Every partition stem of a root system, by exhaustive search, as an
oracle for the uniqueness of the stem that `compute_stem` peels.

`all_partition_stems` reads only `phi_plus_set` and `Root.key`: it shares
none of the peeling, so the peeled stem being its one solution is a check
of the peel and of the uniqueness claim at once.
"""

from __future__ import annotations

from stemhc.rootsystems import Root, RootSystem
from stemhc.stem import phi_plus_set


def all_partition_stems(rs: RootSystem):
    """Every subset S of Delta^+ such that the blocks {zeta} u Phi_zeta^+,
    zeta in S, partition Delta^+.  Exhaustive exact-cover backtracking."""
    pos = sorted(rs.positives, key=Root.key)
    idx = {r: i for i, r in enumerate(pos)}
    blocks = {}
    for z in pos:
        m = 1 << idx[z]
        for b in phi_plus_set(rs, z):
            m |= 1 << idx[b]
        blocks[z] = m
    full = (1 << len(pos)) - 1
    cands = [[] for _ in pos]
    for z in pos:
        m = blocks[z]
        while m:
            low = m & -m
            cands[low.bit_length() - 1].append(z)
            m ^= low
    out = []

    def dfs(covered, chosen):
        if covered == full:
            out.append(frozenset(chosen))
            return
        x = ~covered & full
        i = (x & -x).bit_length() - 1
        for z in cands[i]:
            bz = blocks[z]
            if not (bz & covered):
                dfs(covered | bz, chosen + (z,))

    dfs(0, ())
    return out

