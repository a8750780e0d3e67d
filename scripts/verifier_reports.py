"""Print every verifier report item the library produces on a fixed set of
inputs, one line per item: (name, checked, ok, violation_count, violations).

Two checkouts that print the same lines give the same verdicts and the same
`checked` counts on these inputs, so diffing the output of

    PYTHONPATH=src python3 scripts/verifier_reports.py

across a change shows whether it kept the verifiers' outputs.  The inputs:
`verify_all` on the five worked pairs and on every space of
`enumerate_hc_spaces(24)` at the phases 1, i and zeta8; `verify_rotation` on
every stem root, and `verify_rotation_spans` once, for each type in
ROTATION_TYPES at the same phases.
"""

from stemhc.chevalley import make_basis
from stemhc.classify import enumerate_hc_spaces
from stemhc.cli import SELFTEST_BUILDS
from stemhc.hcstruct import (build_structure, verify_rotation,
                             verify_rotation_spans)
from stemhc.pairs import make_pair_spec
from stemhc.rootsystems import parse_shape
from stemhc.scalars import EIGHTH_ROOT, I, ONE
from stemhc.stem import stem_of

PHASES = (("1", ONE), ("i", I), ("zeta8", EIGHTH_ROOT))
ROTATION_TYPES = ("B4", "C4", "D4", "F4", "G2", "A7", "D6", "E6")


def show(label, rep):
    for it in rep.items:
        print(label, (it.name, it.checked, it.ok, it.violation_count,
                      it.violations))


def main():
    specs = [("%s %s %d" % (text, list(sub), ok_dim),
              make_pair_spec(text, sub, ok_dim))
             for text, sub, ok_dim in SELFTEST_BUILDS]
    specs += [(s.describe(), s.to_pair_spec()) for s in enumerate_hc_spaces(24)]
    for label, spec in specs:
        for name, rho in PHASES:
            show("%s @%s |" % (label, name),
                 build_structure(spec, phases=rho).verify_all())
    for text in ROTATION_TYPES:
        cb = make_basis(parse_shape(text))
        st = stem_of(parse_shape(text))
        for name, rho in PHASES:
            for g in st.elements:
                show("%s rotation %s @%s |" % (text, g, name),
                     verify_rotation(cb, st, g, rho=rho))
            show("%s spans @%s |" % (text, name),
                 verify_rotation_spans(cb, st, rho))


if __name__ == "__main__":
    main()
