"""The lower bound's lemmas, proven in exact rational arithmetic.

Write L = ln(1 + 1/x) and s = sqrt(2x + 1), so that x = (s^2 - 1)/2. Each
reduction below is an identity between rational functions of (s, L, q):

- f = (s/(x + 1)) (g - q), so f >= 0 exactly where q <= g(x);
- f' = -1/(x (x + 1)) + q x/(s (x + 1)^2), and x (x + 1) f' = q/(2 g1) - 1;
- f'' = (2x + 1)/(x^2 (x + 1)^2) - q (3x^2 - 1)/((x + 1)^3 s^3), and
  x^2 (x + 1)^2 f'' = (2x + 1) - q x^2 (3x^2 - 1)/((x + 1) s^3)
  = (2x + 1) (1 - q/(2 g2)).

On (0, g_inverse(q)], g decreasing gives q <= g. So the lemmas follow from
three q-free facts, each a consequence of 0 < xL < 1, that is of
0 < ln(1 + u) < u at u = 1/x:

- x g' s^3 = x^2 L - 2x - 1 < x - 2x - 1 < 0;
- g1/g = ((2x + 1)/(2x)) / (xL) > 1;
- g2/g = ((2x + 1)^3/(2x (3x^2 - 1))) / (xL) > 1 for x > 1/sqrt(3), as
  (2x + 1)^3 - 2x (3x^2 - 1) = 2x^3 + 12x^2 + 8x + 1.

With q <= g < g1, the scaled slope q/(2 g1) - 1 is below -1/2. The scaled
curvature is at least 2x + 1 for x <= 1/sqrt(3), where 3x^2 - 1 <= 0, and
above (2x + 1)/2 beyond, where q < g2. So f is decreasing and convex there.

Proof method: each side of an identity is a quotient of polynomials, and the
numerator of their difference has degree at most d_s in s, 1 in L and 1 in
q. Such a polynomial is zero once it vanishes on a product grid of d_s + 1 by
2 by 2 distinct points, and fractions.Fraction evaluates both sides there
exactly. Derivatives are exact too: dual numbers a + b eps (eps^2 = 0),
seeded with x' = 1, s' = 1/s and L' = -1/(x (x + 1)).
"""

import itertools
from fractions import Fraction

import pytest

from uavlink.lemmas import run_lemma_suite


class Dual:
    """a + b eps with eps^2 = 0: b is the exact derivative through + - * / and **."""

    def __init__(self, a, b=0):
        self.a, self.b = a, b

    def __add__(self, other):
        other = _dual(other)
        return Dual(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.a, -self.b)

    def __sub__(self, other):
        return self + -_dual(other)

    def __rsub__(self, other):
        return _dual(other) - self

    def __mul__(self, other):
        other = _dual(other)
        return Dual(self.a * other.a, self.a * other.b + self.b * other.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _dual(other)
        return Dual(self.a / other.a, (self.b * other.a - self.a * other.b) / (other.a * other.a))

    def __rtruediv__(self, other):
        return _dual(other) / self

    def __pow__(self, n):
        return Dual(self.a**n, n * self.a ** (n - 1) * self.b)


def _dual(v):
    return v if isinstance(v, Dual) else Dual(v)


def derivative(fn):
    """The exact derivative in x of fn(x, s, L, q), as a function of the same point."""
    def slope(x, s, L, q):
        return fn(Dual(x, 1), Dual(s, 1 / s), Dual(L, -1 / (x * (x + 1))), q).b
    return slope


def f(x, s, L, q):
    return L - q * s / (x + 1)


def g(x, s, L, q):
    return (x + 1) * L / s


def g1(x, s, L, q):
    return (1 + x) * s / (2 * x**2)


def g2(x, s, L, q):
    return (x + 1) * s**5 / (2 * x**2 * (3 * x**2 - 1))


def f1(x, s, L, q):
    return -1 / (x * (x + 1)) + q * x / (s * (x + 1) ** 2)


def f2(x, s, L, q):
    return (2 * x + 1) / (x**2 * (x + 1) ** 2) - q * (3 * x**2 - 1) / ((x + 1) ** 3 * s**3)


def scaled_f2(x, s, L, q):
    return (2 * x + 1) - q * x**2 * (3 * x**2 - 1) / ((x + 1) * s**3)


# name: (left side, right side, degree in s of the difference's numerator
# over both sides' denominators, counted with sympy when this was written)
IDENTITIES = {
    "f = (s/(x + 1)) (g - q)": (
        f, lambda x, s, L, q: s / (x + 1) * (g(x, s, L, q) - q), 4),
    "f' closed form": (derivative(f), f1, 11),
    "f'' closed form": (derivative(f1), f2, 21),
    "x (x + 1) f' = q/(2 g1) - 1": (
        lambda x, s, L, q: x * (x + 1) * f1(x, s, L, q),
        lambda x, s, L, q: q / (2 * g1(x, s, L, q)) - 1, 7),
    "x^2 (x + 1)^2 f'' scaled": (
        lambda x, s, L, q: x**2 * (x + 1) ** 2 * f2(x, s, L, q), scaled_f2, 13),
    "scaled f'' = (2x + 1) (1 - q/(2 g2))": (
        scaled_f2, lambda x, s, L, q: (2 * x + 1) * (1 - q / (2 * g2(x, s, L, q))), 13),
    "x g' s^3 = x^2 L - 2x - 1": (
        lambda x, s, L, q: x * derivative(g)(x, s, L, q) * s**3,
        lambda x, s, L, q: x**2 * L - 2 * x - 1, 4),
    "g1/g = ((2x + 1)/(2x)) / (xL)": (
        lambda x, s, L, q: g1(x, s, L, q) / g(x, s, L, q),
        lambda x, s, L, q: (2 * x + 1) / (2 * x) / (x * L), 6),
    "g2/g = ((2x + 1)^3/(2x (3x^2 - 1))) / (xL)": (
        lambda x, s, L, q: g2(x, s, L, q) / g(x, s, L, q),
        lambda x, s, L, q: (2 * x + 1) ** 3 / (2 * x * (3 * x**2 - 1)) / (x * L), 14),
}

# Distinct rationals above 1. As s they keep x = (s^2 - 1)/2 positive, and
# no rational x is a root of 3x^2 - 1, so no denominator above vanishes.
POINTS = [Fraction(k + 4, 3) for k in range(22)]


@pytest.mark.parametrize("name", IDENTITIES)
def test_reduction_is_an_identity(name):
    lhs, rhs, s_degree = IDENTITIES[name]
    for s, L, q in itertools.product(POINTS[:s_degree + 1], POINTS[:2], POINTS[:2]):
        x = (s * s - 1) / 2
        assert lhs(x, s, L, q) == rhs(x, s, L, q), (s, L, q)


def test_g2_margin_polynomial_has_positive_coefficients():
    # A cubic that agrees with 2x^3 + 12x^2 + 8x + 1 at 4 points is that cubic.
    for x in POINTS[:4]:
        assert (2 * x + 1) ** 3 - 2 * x * (3 * x**2 - 1) == 2 * x**3 + 12 * x**2 + 8 * x + 1


# Each q-free fact the lemma report names as proved: the identity that reduces
# it to 0 < xL < 1 and, for g2, the check of the margin polynomial's sign.
PROOFS = {
    "g_decreasing": ("x g' s^3 = x^2 L - 2x - 1", None),
    "g1_dominates_g": ("g1/g = ((2x + 1)/(2x)) / (xL)", None),
    "g2_dominates_g": ("g2/g = ((2x + 1)^3/(2x (3x^2 - 1))) / (xL)",
                       test_g2_margin_polynomial_has_positive_coefficients),
}


def test_the_report_names_exactly_the_proved_facts():
    assert run_lemma_suite()["proved"] == list(PROOFS)
    assert {identity for identity, _ in PROOFS.values()} <= IDENTITIES.keys()


@pytest.mark.parametrize("fact", PROOFS)
def test_each_proved_fact_holds_by_its_proof(fact):
    identity, margin_check = PROOFS[fact]
    test_reduction_is_an_identity(identity)
    if margin_check is not None:
        margin_check()
