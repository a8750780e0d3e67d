"""Exact computational tools for stems of root systems and the left-invariant
hypercomplex structures they induce on compact homogeneous spaces.

All arithmetic is exact over Q(i, sqrt2), and nothing in the library floats.
"""

__version__ = "0.1.0"
