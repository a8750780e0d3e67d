"""The reference kernel that `wall_ref` is measured in.

It does not import stemhc, and it never changes: a fixed amount of the work
that tops this library's profiles (exact `Fraction` products and sums, small
integer tuples added coordinatewise, and dict lookups keyed by those tuples).
On a virtual CPU whose speed drifts, it slows down together with the library,
so a job time divided by the kernel time repeats where raw seconds do not.
"""

from fractions import Fraction
from itertools import product
from operator import add

# Root-like integer vectors with coordinates in -2..2 and small weights:
# 625 keys, denominators from 1..6 so the sums stay small.
_KEYS = list(product(range(-2, 3), repeat=4))
_TABLE = {k: Fraction(sum(i * c for i, c in enumerate(k, 2)), 1 + sum(k) % 6)
          for k in _KEYS}
_STEPS = [k for k in _KEYS if sum(map(abs, k)) == 1]


def run_kernel():
    """One fixed pass over the table; returns its exact checksum."""
    table = _TABLE
    acc = Fraction(0)
    for a in _KEYS:
        wa = table[a]
        for step in _STEPS:
            s = tuple(map(add, a, step))
            ws = table.get(s)
            if ws is not None:
                acc += wa * ws - ws
    return acc


CHECKSUM = run_kernel()
