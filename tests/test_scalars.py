from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from stemhc.scalars import (
    HALF, TowerScalar, ZERO, ONE, I, SQRT2, EIGHTH_ROOT, eighth_root_power,
)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
scalars = st.builds(TowerScalar, rationals, rationals, rationals, rationals)


def as_fraction(s: TowerScalar) -> Fraction:
    """The value of a rational scalar; ValueError on any other."""
    if not s.is_rational():
        raise ValueError("not rational: %s" % s)
    return s.c0


def test_basic_constants():
    assert I * I == -ONE
    assert SQRT2 * SQRT2 == TowerScalar(2)
    assert EIGHTH_ROOT * EIGHTH_ROOT == I
    assert eighth_root_power(4) == -ONE
    assert eighth_root_power(8) == ONE
    assert complex(SQRT2) == pytest.approx(2 ** 0.5)


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars)
def test_inverse(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inv()
    else:
        assert a * a.inv() == ONE
        assert (ONE / a) * a == ONE


@given(scalars, scalars)
def test_conj_is_ring_automorphism(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


def test_conj_fixes_reals_flips_imaginaries():
    assert SQRT2.conj() == SQRT2
    assert I.conj() == -I
    assert TowerScalar(0, 0, 0, 1).conj() == TowerScalar(0, 0, 0, -1)


def test_unit_modulus():
    assert ONE.is_unit_modulus()
    assert I.is_unit_modulus()
    assert (-I).is_unit_modulus()
    assert EIGHTH_ROOT.is_unit_modulus()
    for k in range(8):
        assert eighth_root_power(k).is_unit_modulus()
    assert not TowerScalar(2).is_unit_modulus()
    assert not SQRT2.is_unit_modulus()
    assert not ZERO.is_unit_modulus()


@given(scalars)
@settings(max_examples=300)
def test_text_round_trip(a):
    assert TowerScalar.parse(str(a)) == a


def test_render_examples():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(I) == "i"
    assert str(-I) == "-i"
    assert str(TowerScalar(Fraction(3, 5), Fraction(-4, 5))) == "3/5 - 4/5i"
    assert str(EIGHTH_ROOT) == "1/2√2 + 1/2i√2"
    assert str(TowerScalar(2, 1)) == "2 + i"


def test_parse_ascii_spellings():
    assert TowerScalar.parse("sqrt2") == SQRT2
    assert TowerScalar.parse("1/2sqrt2+1/2isqrt2") == EIGHTH_ROOT
    assert TowerScalar.parse("-i") == -I
    assert TowerScalar.parse("3/5 - 4/5i") == TowerScalar(Fraction(3, 5), Fraction(-4, 5))
    with pytest.raises(ValueError):
        TowerScalar.parse("")
    with pytest.raises(ValueError):
        TowerScalar.parse("q")
    with pytest.raises(ValueError):
        TowerScalar.parse("1+j")


@pytest.mark.parametrize("text,term", [("2/0", "2/0"), ("1/0i", "1/0i"),
                                       ("1 - 3/00sqrt2", "-3/00sqrt2")])
def test_zero_denominator_is_a_bad_term(text, term):
    with pytest.raises(ValueError) as exc:
        TowerScalar.parse(text)
    assert str(exc.value) == "bad scalar term %r in %r" % (term, text)
    assert TowerScalar.parse("1/05i") == TowerScalar(0, Fraction(1, 5))


def test_rational_views():
    assert as_fraction(TowerScalar(Fraction(7, 3))) == Fraction(7, 3)
    assert TowerScalar(5).is_rational()
    assert not I.is_rational()
    with pytest.raises(ValueError):
        as_fraction(I)


def test_immutability():
    with pytest.raises(AttributeError):
        ONE.c0 = Fraction(2)


def test_second_init_cannot_rewrite_a_constant():
    try:
        ONE.__init__(5)
    except TypeError:
        pass
    assert ONE == TowerScalar.of(1)
    assert str(ONE) == "1"


# ------------------------------------------- against an independent model


class RefScalar:
    """Q(i, sqrt2) as four plain Fractions over {1, i, sqrt2, i*sqrt2}."""

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        self.c = tuple(Fraction(x) for x in (c0, c1, c2, c3))

    def __add__(self, o):
        return RefScalar(*(x + y for x, y in zip(self.c, o.c)))

    def __sub__(self, o):
        return RefScalar(*(x - y for x, y in zip(self.c, o.c)))

    def __neg__(self):
        return RefScalar(*(-x for x in self.c))

    def __mul__(self, o):
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = o.c
        # i^2 = -1, sqrt2^2 = 2, (i sqrt2)^2 = -2, i * sqrt2 = i sqrt2
        return RefScalar(a0 * b0 - a1 * b1 + 2 * a2 * b2 - 2 * a3 * b3,
                         a0 * b1 + a1 * b0 + 2 * a2 * b3 + 2 * a3 * b2,
                         a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
                         a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1)

    def conj(self):
        a0, a1, a2, a3 = self.c
        return RefScalar(a0, -a1, a2, -a3)

    def __eq__(self, o):
        return self.c == o.c

    def __bool__(self):
        return any(self.c)

    def __str__(self):
        parts = []
        for coeff, unit in zip(self.c, ("", "i", "√2", "i√2")):
            if coeff:
                mag = str(abs(coeff)) if abs(coeff) != 1 or not unit else ""
                sign = "-" if coeff < 0 else "+"
                if parts:
                    parts.append(" %s %s%s" % (sign, mag, unit))
                else:
                    parts.append("%s%s%s" % ("-" if coeff < 0 else "",
                                             mag, unit))
        return "".join(parts) or "0"


def ref(s):
    return RefScalar(*s.coords())


def fields(s):
    return (s._n0, s._n1, s._n2, s._n3, s._d)


def canonical(s):
    n0, n1, n2, n3, d = fields(s)
    return d > 0 and gcd(n0, n1, n2, n3, d) == 1 and all(
        type(x) is int for x in fields(s))


# unit phases (a + b i) / c with a^2 + b^2 = c^2, c <= 41, as the benchmark
# draws them, times the eighth roots of unity
PYTHAGOREAN = [(a, b, c) for c in range(1, 42) for a in range(-c, c + 1)
               for b in range(-c, c + 1) if a * a + b * b == c * c]
phases = st.builds(
    lambda abc, k: TowerScalar(Fraction(abc[0], abc[2]),
                               Fraction(abc[1], abc[2])) * eighth_root_power(k),
    st.sampled_from(PYTHAGOREAN), st.integers(0, 7))
wide = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                    max_denominator=41 ** 3)
mixed = st.one_of(
    scalars, phases,
    st.builds(TowerScalar, wide, wide, wide, wide),
    st.builds(lambda p, q: p * q, phases, st.builds(TowerScalar, wide, wide)),
    st.builds(TowerScalar, wide))


@given(mixed, mixed)
@settings(max_examples=300)
def test_arithmetic_matches_the_fraction_model(a, b):
    ra, rb = ref(a), ref(b)
    for got, want in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb),
                      (-a, -ra), (a.conj(), ra.conj())):
        assert canonical(got)
        assert ref(got) == want
        assert str(got) == str(want)
        assert bool(got) == bool(want)
    assert (a == b) == (ra == rb)
    assert (a == a + a) == (not a)
    assert str(a) == str(ra)
    if b:
        q = a / b
        assert canonical(q) and canonical(b.inv())
        assert ref(q) * rb == ra
        assert ref(b.inv()) * rb == RefScalar(1)
    else:
        with pytest.raises(ZeroDivisionError):
            a / b


@given(mixed, wide, st.integers(-10 ** 6, 10 ** 6))
def test_mixed_operands_on_both_sides(a, f, k):
    ra, rf, rk = ref(a), RefScalar(f), RefScalar(k)
    cases = [(f * a, rf * ra), (a * f, ra * rf), (k * a, rk * ra),
             (a * k, ra * rk), (a + f, ra + rf), (f + a, rf + ra),
             (k - a, rk - ra), (a - k, ra - rk), (3 - a, RefScalar(3) - ra),
             (a + 1, ra + RefScalar(1))]
    for got, want in cases:
        assert isinstance(got, TowerScalar)
        assert canonical(got)
        assert ref(got) == want
    assert (a == f) == (ra == rf)
    assert (a == k) == (ra == rk)


# fields (6, -4, 0, 15) / 18: a factor must be reduced against d > 1
MIXED = TowerScalar(Fraction(1, 3), Fraction(-2, 9), 0, Fraction(5, 6))


@pytest.mark.parametrize("x", [ZERO, ONE, EIGHTH_ROOT, MIXED],
                         ids=["zero", "one", "zeta8", "mixed"])
@pytest.mark.parametrize("k", [0, 1, -1, 2, -6, True, Fraction(0),
                               Fraction(-3, 4), Fraction(6, 4)],
                         ids=repr)
def test_int_and_fraction_factors_scale_the_fields(x, k):
    """x * k and k * x for an int or Fraction k are the canonical product
    with TowerScalar.of(k), on both sides, whether or not k coerces."""
    want = fields(x * TowerScalar.of(k))
    for got in (x * k, k * x):
        assert isinstance(got, TowerScalar)
        assert canonical(got)
        assert fields(got) == want
        assert ref(got) == ref(x) * RefScalar(k)


@pytest.mark.parametrize("x", [ZERO, ONE, EIGHTH_ROOT, MIXED, 0, -6,
                               Fraction(6, 4)], ids=repr)
def test_a_sum_from_zero_is_its_first_term(x):
    """ZERO + x, x + ZERO and ZERO - x, the first step of every sparse sum,
    are x and -x in canonical form, for a scalar, int or Fraction x; a
    scalar x comes back as it is."""
    t = TowerScalar.of(x)
    if isinstance(x, TowerScalar):
        assert ZERO + x is x
    for got, want in ((ZERO + x, t), (x + ZERO, t), (ZERO - x, -t)):
        assert isinstance(got, TowerScalar)
        assert canonical(got)
        assert fields(got) == fields(want)
    assert ref(ZERO - x) == -ref(t)


def test_one_representation_per_value():
    half = TowerScalar(Fraction(2, 4))
    assert fields(half) == fields(TowerScalar(Fraction(1, 2))) == (1, 0, 0, 0, 2)
    assert hash(half) == hash(TowerScalar(Fraction(1, 2)))
    assert fields(TowerScalar(Fraction(-6, 4), 3, Fraction(9, 6))) == \
        (-3, 6, 3, 0, 2)
    assert fields(ZERO) == (0, 0, 0, 0, 1)
    assert TowerScalar(Fraction(1, 2)) != ONE
    assert fields(I - I) == fields(ZERO)
    x = TowerScalar(Fraction(1, 3), 0, Fraction(-5, 7), 2)
    for s in (x, half, ZERO, EIGHTH_ROOT, x * x.inv(), x - x, -ONE, HALF,
              TowerScalar(Fraction(-1, 4))):
        assert hash(s) == hash(TowerScalar(*s.coords()))
        if s.is_rational():
            assert hash(s) == hash(as_fraction(s))
    assert x * x.inv() == ONE and fields(x * x.inv()) == fields(ONE)
    assert all(type(c) is Fraction for c in x.coords())


@given(mixed, mixed)
def test_equal_values_hash_equally(a, b):
    same = (a + b) - b
    assert same == a and hash(same) == hash(a)
    if a.is_rational():
        f = as_fraction(a)
        assert a == f and hash(a) == hash(f)
        if f.denominator == 1:
            assert a == int(f) and hash(a) == hash(int(f))


def test_a_set_holds_one_copy_of_each_value():
    assert len({1, TowerScalar(1), ONE}) == 1
    assert len({Fraction(1, 2), TowerScalar(Fraction(1, 2))}) == 1
    assert len({0, ZERO, I - I, I, -I, Fraction(2, 2)}) == 4


def test_irrational_norm_raises_arithmetic_error(monkeypatch):
    """A norm that is not rational (only a broken conjugation can make one)
    raises ArithmeticError, which `python -O` keeps, unlike an assert."""
    monkeypatch.setattr(TowerScalar, "_sqrt2_conj", lambda self: self)
    with pytest.raises(ArithmeticError):
        (ONE + SQRT2).inv()
