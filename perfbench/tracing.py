"""Per-layer tracing, installed from outside the library.

Each traced name is replaced by a wrapper wherever its callers look it up:
on its class for a method, and in every loaded `stemhc` module that bound
the function by name for a module-level function.  Nothing under `src/`
changes, and `installed` restores every original on exit.

Span wrappers record (name, start, end, parent) in memory, count calls, sum
self time (a span's duration minus the time its child spans cover) and, for
verifiers, the `checked` totals of the reports they return.  Count wrappers
only count calls: wrapping the scalar operators would distort any time
measured around them, so they run in a pass of their own.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, module, attribute, reports checks)
SPAN_TARGETS = (
    ("rootsystems.build", "rootsystems", "RootSystem.__init__", False),
    ("rootsystems.irreducible_components", "rootsystems",
     "RootSystem.irreducible_components", False),
    ("rootsystems.is_closed", "rootsystems", "RootSystem.is_closed", False),
    ("stem.compute_stem", "stem", "compute_stem", False),
    ("stem.verify_stem_properties", "stem", "verify_stem_properties", False),
    ("chevalley.basis", "chevalley", "ChevalleyBasis.__init__", False),
    ("chevalley.bracket", "chevalley", "ChevalleyBasis.bracket", False),
    ("chevalley.verify_special_sign_identity", "chevalley",
     "verify_special_sign_identity", False),
    ("pairs.check_pair", "pairs", "check_pair", False),
    ("pairs.complement_data", "pairs", "complement_data", False),
    ("classify.sign_claims_hold", "classify", "sign_claims_hold", False),
    ("classify.enumerate_hc_spaces", "classify", "enumerate_hc_spaces",
     False),
    ("hcstruct.pbasis", "hcstruct", "PBasis.__init__", False),
    ("hcstruct.operators", "hcstruct", "build_I", False),
    ("hcstruct.operators", "hcstruct", "build_J", False),
    ("hcstruct.operators", "hcstruct", "conjugation_matrix", False),
    ("hcstruct.decompose", "hcstruct", "PBasis.decompose", False),
    ("hcstruct.verify_operator_identities", "hcstruct",
     "verify_operator_identities", True),
    ("hcstruct.verify_equivariance", "hcstruct", "verify_equivariance", True),
    ("hcstruct.verify_integrability", "hcstruct", "verify_integrability",
     True),
    ("hcstruct.verify_root_coupling", "hcstruct", "verify_root_coupling",
     True),
    ("hcstruct.verify_wing_restriction", "hcstruct",
     "verify_wing_restriction", True),
    ("hcstruct.verify_eigenspace_transport", "hcstruct",
     "verify_eigenspace_transport", True),
    ("hcstruct.root_rotation", "hcstruct", "root_rotation", False),
    ("hcstruct.rotation_product", "hcstruct", "rotation_product", False),
    ("hcstruct.verify_rotation", "hcstruct", "verify_rotation", True),
    ("hcstruct.verify_rotation_spans", "hcstruct", "verify_rotation_spans",
     False),
    ("linalg.rref", "linalg", "rref", False),
    ("linalg.mat_mul", "linalg", "mat_mul", False),
)

# (metric prefix, module, attribute)
COUNT_TARGETS = (
    ("rootsystems.sym_form", "rootsystems", "RootSystem.sym_form"),
    ("chevalley.tau", "chevalley", "ChevalleyBasis.tau"),
    ("hcstruct.rotation_apply", "hcstruct", "RootRotation.apply_coords"),
    ("linalg.kernel_basis", "linalg", "kernel_basis"),
    ("linalg.span", "linalg", "Span.__init__"),
    ("scalars.mul", "scalars", "TowerScalar.__mul__"),
    ("scalars.mul", "scalars", "TowerScalar.__rmul__"),
    ("scalars.bool", "scalars", "TowerScalar.__bool__"),
)

# the per-layer metrics the traced run reports, as (name, unit)
CALLS = ("rootsystems.build", "rootsystems.irreducible_components",
         "rootsystems.is_closed", "rootsystems.sym_form", "stem.compute_stem",
         "chevalley.basis", "chevalley.bracket", "chevalley.tau",
         "pairs.check_pair", "pairs.complement_data", "hcstruct.pbasis",
         "hcstruct.decompose", "hcstruct.root_rotation",
         "hcstruct.rotation_product", "hcstruct.rotation_apply",
         "linalg.rref", "linalg.kernel_basis", "linalg.mat_mul",
         "linalg.span", "scalars.mul", "scalars.bool")
VERIFIERS = ("hcstruct.verify_operator_identities",
             "hcstruct.verify_equivariance", "hcstruct.verify_integrability",
             "hcstruct.verify_root_coupling",
             "hcstruct.verify_wing_restriction",
             "hcstruct.verify_eigenspace_transport",
             "hcstruct.verify_rotation")
SELF_TIMES = ("rootsystems.build", "rootsystems.irreducible_components",
              "rootsystems.is_closed", "stem.compute_stem",
              "stem.verify_stem_properties", "chevalley.basis",
              "chevalley.bracket", "chevalley.verify_special_sign_identity",
              "pairs.check_pair", "pairs.complement_data",
              "classify.sign_claims_hold", "classify.enumerate_hc_spaces",
              "hcstruct.pbasis", "hcstruct.operators", "hcstruct.decompose",
              "hcstruct.root_rotation", "hcstruct.rotation_product",
              "hcstruct.verify_rotation_spans", "linalg.rref",
              "linalg.mat_mul") + VERIFIERS
OVERHEAD = "trace.overhead_pct"

PER_LAYER = ([(name + ".calls", "count") for name in CALLS]
             + [(name + ".checks", "count") for name in VERIFIERS]
             + [(name + ".self_s", "s") for name in SELF_TIMES]
             + [(OVERHEAD, "%")])


def checked_total(result):
    """The `checked` sum of a verifier's report (or of a (value, report)
    pair, as `verify_root_coupling` returns)."""
    rep = result[1] if isinstance(result, tuple) else result
    return sum(it.checked for it in rep.items)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.calls = Counter()
        self.self_s = Counter()
        self.checks = Counter()
        self._stack = []         # open spans: [index, time covered by children]
        self._ticks = {}         # count wrappers: metric prefix -> counter

    def span(self, name, fn, checks):
        spans, stack = self.spans, self._stack
        calls, self_s, n_checks = self.calls, self.self_s, self.checks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[1]
                calls[name] += 1
                if parent is None:
                    spans[frame[0]] = (name, start, end, -1)
                else:
                    parent[1] += duration
                    spans[frame[0]] = (name, start, end, parent[0])
            if checks:
                n_checks[name] += checked_total(result)
            return result

        return wrapper

    def count(self, name, fn):
        tick = self._ticks.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def counted(self):
        """Calls seen by the count wrappers, by metric prefix.  Reading
        advances each counter, so read once, after the pass."""
        return {name: next(ticks) for name, ticks in self._ticks.items()}

    @contextmanager
    def installed(self, spans=True):
        """Patch the span targets (spans=True) or the count targets."""
        undo = []
        try:
            if spans:
                for name, module, attr, checks in SPAN_TARGETS:
                    _patch(module, attr, lambda fn, n=name, c=checks:
                           self.span(n, fn, c), undo)
            else:
                for name, module, attr in COUNT_TARGETS:
                    _patch(module, attr, lambda fn, n=name:
                           self.count(n, fn), undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def _patch(module, attr, make_wrapper, undo):
    mod = sys.modules["stemhc." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, make_wrapper(original))
        undo.append((cls, meth, original))
        return
    original = getattr(mod, attr)
    wrapper = make_wrapper(original)
    for name, other in list(sys.modules.items()):
        if other is None or not name.startswith("stemhc"):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                setattr(other, key, wrapper)
                undo.append((other, key, original))
