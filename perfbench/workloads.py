"""The three workloads: fixed job lists, inputs drawn from the seed, the
plain outputs read off each result, and the checks on those outputs.

Each job is one operation.  `run` holds the library calls that are timed;
`summarize` reads the result into plain data outside the timed region; `check`
returns the problems it finds in that data, and is computed apart from the
library: closed forms, an independent recursion, floating point rechecks with
numpy and scipy, or properties the construction must have.  numpy and scipy
are imported only inside the checks, after peak memory has been read.

The job lists are the same on every commit; the seed only draws the unit
phases of hc-verify and rotations.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from stemhc import chevalley, classify, hcstruct, pairs, rootsystems, stem
from stemhc.scalars import TowerScalar, eighth_root_power

WORKLOADS = ("atlas", "hc-verify", "rotations")

# every simple type of rank <= 8
ATLAS_TYPES = (["A%d" % n for n in range(1, 9)]
               + ["B%d" % n for n in range(2, 9)]
               + ["C%d" % n for n in range(2, 9)]
               + ["D%d" % n for n in range(4, 9)]
               + ["E6", "E7", "E8", "F4", "G2"])
ATLAS_ENUM_BOUND = 32

# the selftest pairs: shape, substem, the SU(n+1)/SU(n+3-2k) factors (n, k)
# the space is made of, and the central torus dimension that stays in p
SELFTEST_PAIRS = (
    ("A2", (), ((2, 2),), 0),
    ("A3", (2,), ((3, 2),), 0),
    ("A4", (2,), ((4, 2),), 0),
    ("A2 x A2", (), ((2, 2), (2, 2)), 0),
    ("c^4 x A2", (), ((2, 2),), 4),
)
HC_ENUM_BOUND = 20

ROTATION_TYPES = ("B4", "C4", "D4", "F4", "G2", "A7", "D6", "E6")

TOLERANCE = 1e-9        # for the floating point rechecks of exact results


class Job(NamedTuple):
    label: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    check: Callable[[object], list]


def clear_caches():
    """Forget every cached root system, stem and basis, as a fresh process."""
    rootsystems.build_cached.cache_clear()
    chevalley.make_basis.cache_clear()
    stem.stem_of.cache_clear()


# ---------------------------------------------------------------- closed forms


def positive_root_count(family, n):
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[family]


def expected_srank(family, n):
    """Twice the stem size: A from its floor((n+1)/2) stem, B, C and D from
    their maximal strongly orthogonal sets, the rest as tabulated."""
    if family == "A":
        return 2 * ((n + 1) // 2)
    if family in "BC":
        return 2 * n
    if family == "D":
        return 4 * (n // 2)
    return {("E", 6): 8, ("E", 7): 14, ("E", 8): 16, ("F", 4): 8,
            ("G", 2): 4}[(family, n)]


def quotient_dim(n, k):
    """dim SU(n+1) - dim SU(n+3-2k)."""
    return (n + 1) ** 2 - (n + 3 - 2 * k) ** 2


def independent_spaces(max_dim):
    """Every multiset of factors (n, k) with total dimension <= max_dim,
    found by a direct scan of the quotient parameters."""
    singles = []
    for n in range(2, max_dim + 1):
        for k in range(2, n + 2):
            if n + 3 - 2 * k >= 1 and quotient_dim(n, k) <= max_dim:
                singles.append((n, k, quotient_dim(n, k)))
    found = set()

    def grow(start, acc, total):
        for i in range(start, len(singles)):
            n, k, d = singles[i]
            if total + d <= max_dim:
                combo = tuple(sorted(acc + [(n, k)]))
                found.add(combo)
                grow(i, acc + [(n, k)], total + d)

    grow(0, [], 0)
    return found


def report_items(rep):
    return [(it.name, it.checked, it.ok) for it in rep.items]


def failed_items(items, where):
    return ["%s: %s failed" % (where, name) for name, _c, ok in items
            if not ok]


# ---------------------------------------------------------------- atlas


def atlas_type_run(label):
    clear_caches()
    sh = rootsystems.parse_shape(label)
    st = stem.stem_of(sh)
    stem_rep = stem.verify_stem_properties(st)
    cb = chevalley.make_basis(sh)
    sign_rep = chevalley.verify_special_sign_identity(cb, st)
    claims_ok, audit_rows, _bad = classify.sign_claims_hold(sh)
    pair_rows = []
    for sub in pairs.enumerate_substems(st):
        spec = pairs.PairSpec(sh, sub.indices, 0)
        rep = pairs.check_pair(spec)
        comp = pairs.complement_data(spec) if rep.verdict else None
        pair_rows.append((rep, comp))
    return st, stem_rep, sign_rep, claims_ok, audit_rows, pair_rows


def atlas_type_summary(result):
    st, stem_rep, sign_rep, claims_ok, audit_rows, pair_rows = result
    return {
        "stem": [(g.coords, len(st.phi[g])) for g in st.elements],
        "srank": st.srank,
        "items": report_items(stem_rep) + report_items(sign_rep),
        "claims_ok": claims_ok,
        "audit": [(row.substem, row.deficiency) for row in audit_rows],
        "pairs": [(rep.spec.substem_indices, rep.verdict, rep.deficiency,
                   rep.dim_diff, comp.dim_p if comp else None)
                  for rep, comp in pair_rows],
    }


def atlas_type_check(label, out):
    family, n = label[0], int(label[1:])
    bad = failed_items(out["items"], label)
    blocks = sum(wings + 1 for _coords, wings in out["stem"])
    if blocks != positive_root_count(family, n):
        bad.append("%s: wing blocks cover %d positive roots, not %d"
                   % (label, blocks, positive_root_count(family, n)))
    if family == "A" and len(out["stem"]) != (n + 1) // 2:
        bad.append("%s: stem has %d roots" % (label, len(out["stem"])))
    if out["srank"] != expected_srank(family, n) or \
            out["srank"] != 2 * len(out["stem"]):
        bad.append("%s: srank %d" % (label, out["srank"]))
    if not out["claims_ok"]:
        bad.append("%s: sign claims fail" % label)
    m = len(out["stem"])
    for substem, deficiency in out["audit"]:
        if family == "A":
            want = -1 if (not substem and n % 2 == 1) else 0
            if deficiency != want:
                bad.append("%s %s: audit deficiency %d" % (label, substem,
                                                           deficiency))
        elif deficiency >= 0:
            bad.append("%s %s: audit deficiency %d" % (label, substem,
                                                       deficiency))
    for substem, verdict, deficiency, dim_diff, dim_p in out["pairs"]:
        where = "%s %s" % (label, list(substem))
        full = len(substem) == m
        if family != "A":
            # every substem is rejected: with a negative deficiency, or the
            # full one with nothing left over
            if verdict:
                bad.append("%s: accepted" % where)
            if full and (deficiency, dim_diff) != (0, 0):
                bad.append("%s: full substem leaves %d" % (where, dim_diff))
            if not full and deficiency >= 0:
                bad.append("%s: deficiency %d" % (where, deficiency))
            continue
        # up-closed substems of the A_n chain are tails k..m; the empty one
        # leaves the whole group
        k = substem[0] if substem else None
        if substem and tuple(substem) != tuple(range(k, m + 1)):
            bad.append("%s: not a tail of the stem" % where)
            continue
        want_def = -1 if (not substem and n % 2 == 1) else 0
        want_dim = quotient_dim(n, k) if substem else (n + 1) ** 2 - 1
        if deficiency != want_def:
            bad.append("%s: deficiency %d, want %d"
                       % (where, deficiency, want_def))
        if dim_diff != want_dim:
            bad.append("%s: dimension gap %d, want %d"
                       % (where, dim_diff, want_dim))
        if verdict != (not full and want_def == 0):
            bad.append("%s: verdict %s" % (where, verdict))
        if verdict and dim_p != dim_diff:
            bad.append("%s: complement dimension %s" % (where, dim_p))
    return bad


def atlas_enum_run():
    clear_caches()
    spaces = classify.enumerate_hc_spaces(ATLAS_ENUM_BOUND)
    return [(s, pairs.check_pair(s.to_pair_spec())) for s in spaces]


def atlas_enum_summary(result):
    return [(tuple(sorted((f.n, f.k) for f in s.factors)), rep.verdict,
             rep.deficiency, rep.dim_diff) for s, rep in result]


def atlas_enum_check(out):
    bad = []
    got = [factors for factors, _v, _d, _dim in out]
    if len(got) != len(set(got)):
        bad.append("enumeration lists a space twice")
    want = independent_spaces(ATLAS_ENUM_BOUND)
    if set(got) != want:
        bad.append("enumeration differs from the direct scan: %d vs %d spaces"
                   % (len(set(got)), len(want)))
    for factors, verdict, deficiency, dim_diff in out:
        if not verdict or deficiency != 0:
            bad.append("%s rejected (deficiency %d)" % (factors, deficiency))
        if dim_diff != sum(quotient_dim(n, k) for n, k in factors):
            bad.append("%s: dimension %d" % (factors, dim_diff))
    return bad


def atlas_jobs(seed):
    jobs = [Job(label, lambda label=label: atlas_type_run(label),
                atlas_type_summary,
                lambda out, label=label: atlas_type_check(label, out))
            for label in ATLAS_TYPES]
    jobs.append(Job("enumerate%d" % ATLAS_ENUM_BOUND, atlas_enum_run,
                    atlas_enum_summary, atlas_enum_check))
    return jobs


# ---------------------------------------------------------------- phases


def unit_phase(rng):
    """A power of zeta8 times a rational point (a+bi)/c of the unit circle."""
    m = rng.randint(2, 5)
    q = rng.randint(1, m - 1)
    a, b, c = m * m - q * q, 2 * m * q, m * m + q * q
    if rng.random() < 0.5:
        a, b = b, a
    a *= rng.choice((1, -1))
    b *= rng.choice((1, -1))
    return eighth_root_power(rng.randrange(8)) * \
        TowerScalar(Fraction(a, c), Fraction(b, c))


# ---------------------------------------------------------------- hc-verify


def hc_run(spec, phases):
    hc = hcstruct.build_structure(spec, phases=phases)
    return hc, hc.verify_all()


def hc_summary(result):
    hc, rep = result
    return {"dim_p": len(hc.pbasis.labels), "I": hc.i_matrix,
            "J": hc.j_matrix, "items": report_items(rep)}


def hc_check(label, want_dim, out):
    import numpy as np

    bad = failed_items(out["items"], label)
    bad += ["%s: %s checked nothing" % (label, name)
            for name, checked, _ok in out["items"] if checked <= 0]
    n = out["dim_p"]
    if n % 4 or n != want_dim:
        bad.append("%s: dim p %d, want %d" % (label, n, want_dim))
    i_m, j_m = (np.array([[complex(v) for v in row] for row in out[key]])
                for key in ("I", "J"))
    if i_m.shape != (n, n) or j_m.shape != (n, n):
        return bad + ["%s: operator shape" % label]
    minus = -np.eye(n)
    for name, got, want in (("I^2 = -1", i_m @ i_m, minus),
                            ("J^2 = -1", j_m @ j_m, minus),
                            ("IJ = -JI", i_m @ j_m, -(j_m @ i_m))):
        err = float(np.max(np.abs(got - want)))
        if err > TOLERANCE:
            bad.append("%s: %s off by %.3g" % (label, name, err))
    return bad


def hc_jobs(seed):
    rng = random.Random(seed)
    pairs_in = [("%s %s" % (text, list(sub)),
                 pairs.make_pair_spec(text, sub, 0), factors, center)
                for text, sub, factors, center in SELFTEST_PAIRS]
    pairs_in += [(s.describe(), s.to_pair_spec(),
                  tuple((f.n, f.k) for f in s.factors), 0)
                 for s in classify.enumerate_hc_spaces(HC_ENUM_BOUND)]
    jobs = []
    for label, spec, factors, center in pairs_in:
        # warm-up: the root system, stem and basis of the shape
        chevalley.make_basis(spec.shape)
        phases = {g: unit_phase(rng)
                  for g in spec.substem().complement_roots()}
        want_dim = sum(quotient_dim(n, k) for n, k in factors) + center
        jobs.append(Job(label,
                        lambda spec=spec, phases=phases: hc_run(spec, phases),
                        hc_summary,
                        lambda out, label=label, d=want_dim:
                            hc_check(label, d, out)))
    warm_rotation_cache()
    return jobs


def warm_rotation_cache():
    """Fill the cached quarter-turn polynomial through one public call."""
    sh = rootsystems.parse_shape("A1")
    hcstruct.root_rotation(chevalley.make_basis(sh),
                           stem.stem_of(sh).elements[0])


# ---------------------------------------------------------------- rotations


def rotation_run(cb, st, gamma, rho):
    return (hcstruct.root_rotation(cb, gamma, rho),
            hcstruct.verify_rotation(cb, st, gamma, rho))


def rotation_summary(result):
    rot, rep = result
    return {"cols": rot.cols, "items": report_items(rep)}


def ad_matrix(cb, x):
    """ad x in the canonical basis of g, built from brackets."""
    import numpy as np

    n = len(cb.basis_keys)
    ad = np.zeros((n, n), dtype=complex)
    for j, key in enumerate(cb.basis_keys):
        y = cb.bracket(x, cb.basis_element(key))
        for r, c in y.e.items():
            ad[cb.key_index[("e", r)], j] = complex(c)
        for i, c in enumerate(y.h):
            if c:
                ad[cb.key_index[("h", i)], j] = complex(c)
    return ad


def rotation_check(label, gamma, rho, out):
    import numpy as np
    from scipy.linalg import expm

    bad = failed_items(out["items"], "%s %s" % (label, gamma))
    cb = chevalley.make_basis(rootsystems.parse_shape(label))
    n = len(cb.basis_keys)
    cols = out["cols"]
    if len(cols) != n or any(len(c) != n for c in cols):
        return bad + ["%s %s: rotation shape" % (label, gamma)]
    exact = np.array([[complex(cols[j][i]) for j in range(n)]
                      for i in range(n)])
    approx = expm((math.pi / 2) * ad_matrix(cb, cb.X(gamma, rho)))
    err = float(np.max(np.abs(approx - exact)))
    if err > TOLERANCE:
        bad.append("%s %s: rotation differs from expm by %.3g"
                   % (label, gamma, err))
    return bad


def rotation_jobs(seed):
    rng = random.Random(seed)
    jobs = []
    for label in ROTATION_TYPES:
        sh = rootsystems.parse_shape(label)
        cb, st = chevalley.make_basis(sh), stem.stem_of(sh)
        phases = {g: unit_phase(rng) for g in st.elements}
        for g in st.elements:
            jobs.append(Job(
                "%s %s" % (label, g),
                lambda cb=cb, st=st, g=g, rho=phases[g]:
                    rotation_run(cb, st, g, rho),
                rotation_summary,
                lambda out, label=label, g=g, rho=phases[g]:
                    rotation_check(label, g, rho, out)))
        jobs.append(Job("%s spans" % label,
                        lambda cb=cb, st=st, phases=phases:
                            hcstruct.verify_rotation_spans(cb, st, phases),
                        report_items,
                        lambda out, label=label:
                            failed_items(out, "%s spans" % label)))
    warm_rotation_cache()
    return jobs


def make_jobs(workload, seed):
    """The job list of a workload, with its inputs drawn from the seed and
    the library's caches filled where the workload relies on them."""
    return {"atlas": atlas_jobs, "hc-verify": hc_jobs,
            "rotations": rotation_jobs}[workload](seed)
