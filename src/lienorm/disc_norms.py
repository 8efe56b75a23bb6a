"""Certified norm machinery on discs.

The sup norm of a truncated series on the closed disc of radius t is
bounded above by the majorant norm sum(|a_n| t^n); the bound is an
equality when all coefficients are nonnegative, so majorant_norm(f, x)
is also the Borel bound f(x) of a majorant series f at x > 0.  The
Cauchy-Nagumo comparison is decided in exact rational arithmetic, and a
float reported for an exact value is the least float at or above it, so
it stays a certified upper bound.  The weight-sum condition
(lambda_p_check) is evaluated in floats.

Local-operator bounds compose (compose_local_bounds), and calibrate
turns a bound into a norm that is submultiplicative under composition.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction


class DivergenceError(ValueError):
    """A bound diverges: the evaluation point is outside the radius of
    convergence."""


def _exact(x) -> Fraction:
    """Exact rational image of an int/Fraction/float (floats are dyadic)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)
    raise TypeError("expected a real number, got %r" % (x,))


def _upper_float(x: Fraction) -> float:
    """The least float >= x; OverflowError far above the float range."""
    f = float(x)
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f


@dataclass(frozen=True)
class MajorantValue:
    """sum(|a_n| t^n), exact and as a certified float upper bound."""

    value: float
    exact: Fraction


def _majorant_exact(f: TruncSeries, t) -> Fraction:
    t = _exact(t)
    if t <= 0:
        raise ValueError("radius must be positive")
    acc = Fraction(0)
    for c in reversed(f.coeffs):
        acc = acc * t + abs(c)
    return acc


def majorant_norm(f: TruncSeries, t) -> MajorantValue:
    """sum(|a_n| t^n) over the stored coefficients of f."""
    exact = _majorant_exact(f, t)
    return MajorantValue(_upper_float(exact), exact)


def nagumo_check(f: TruncSeries, k: int, t, s) -> bool:
    """Cauchy-Nagumo: |f^(k)|_s <= k!/(t-s)^k |f|_t, decided exactly.

    Holds coefficientwise for every polynomial, so this returns True for
    any truncated series; it exists as a regression check on the bound
    machinery.
    """
    t, s = _exact(t), _exact(s)
    if not 0 < s < t:
        raise ValueError("need 0 < s < t")
    if k < 0:
        raise ValueError("k must be >= 0")
    g = f
    for _ in range(k):
        if g.is_zero():  # so is every further derivative: 0 <= rhs
            return True
        g = g.derivative()
    lhs = _majorant_exact(g, s)
    rhs = Fraction(math.factorial(k)) / (t - s) ** k * _majorant_exact(f, t)
    return lhs <= rhs


@dataclass(frozen=True)
class LocalOpBound:
    """Certified statement |u_st| <= C / (s^k (t-s)^l) for 0 < s < t."""

    C: float
    k: float
    l: float

    def __post_init__(self):
        if self.C < 0 or self.k < 0 or self.l < 0:
            raise ValueError("C, k, l must all be >= 0")


def compose_local_bounds(b1: LocalOpBound, b2: LocalOpBound) -> LocalOpBound:
    """Bound for the composition: pole orders add, constants pick up
    l^l / (l1^l1 l2^l2), with 0^0 = 1 (as float 0.0 ** 0.0 is)."""
    l = b1.l + b2.l
    lf, l1, l2 = float(l), float(b1.l), float(b2.l)
    factor = lf**lf / (l1**l1 * l2**l2)
    return LocalOpBound(factor * b1.C * b2.C, b1.k + b2.k, l)


def calibrate(b: LocalOpBound) -> float:
    """Calibrated norm (e/l)^l * C, submultiplicative under composition."""
    if b.l == 0:
        return float(b.C)
    return (math.e / b.l) ** b.l * b.C


def division_by_z_bound(zero_constant: bool = True) -> LocalOpBound:
    """(1,0)-local bound for f |-> (f - f(0))/z on the disc family.

    The constant is 1 on series with zero constant term (the majorant
    computation is exact there) and 2 in general.
    """
    return LocalOpBound(1.0 if zero_constant else 2.0, 1.0, 0.0)


def derivative_bound(k: int = 1) -> LocalOpBound:
    """(0,k)-local bound for the k-th derivative (Cauchy-Nagumo)."""
    return LocalOpBound(float(math.factorial(k)), 0.0, float(k))


def geometric_borel_bound(x) -> float:
    """Closed form 1/(1-x) for the geometric majorant (the exponential
    case of the operator transform); diverges at x >= 1."""
    if x < 0:
        raise ValueError("need x >= 0")
    if x >= 1:
        raise DivergenceError("geometric majorant diverges at x >= 1")
    return _upper_float(1 / (1 - _exact(x)))


class WeightSequence:
    """A family of increasing weight functions lambda_n on (0, 1].

    kind 'geometric' is lambda_n(s) = s**n; 'constant' is lambda_n = 1.
    Each kind is a formula in n, so lambda_p_check sums over all n, never
    a table.
    """

    def __init__(self, kind: str):
        if kind not in ("geometric", "constant"):
            raise ValueError("unknown weight kind %r" % kind)
        self.kind = kind

    def weight(self, n: int, s: float) -> float:
        if self.kind == "geometric":
            return float(s) ** n
        return 1.0


def _ratio_sum(lam: WeightSequence, mu: WeightSequence, p: float, s, t):
    """sum over i of (mu_i(s)/lambda_i(t))^p in closed form: every kind
    is log-linear in the index, so the terms form a geometric series."""
    w0 = (mu.weight(0, s) / lam.weight(0, t)) ** p
    w1 = (mu.weight(1, s) / lam.weight(1, t)) ** p
    r = w1 / w0
    if r >= 1:
        return math.inf
    return w0 / (1 - r)


def lambda_p_check(lam: WeightSequence, mu: WeightSequence, p: float,
                   alpha: float, C: float,
                   grid: Sequence[tuple[float, float]]) -> bool:
    """Condition: sum_i mu_i(s)^p / lambda_i(t)^p <= C / (t-s)^alpha at
    every grid point (s, t) with 0 < s < t.

    Every verdict compares the whole infinite sum, taken in closed form
    by _ratio_sum.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    for s, t in grid:
        if not 0 < s < t:
            raise ValueError("grid points need 0 < s < t, got (%s, %s)" % (s, t))
        if _ratio_sum(lam, mu, p, s, t) > C / (t - s) ** alpha:
            return False
    return True


def division_bound(d: int, t) -> float:
    """Certified factor 1/eps(t) = t^-d for monomial Weierstrass division:
    |q|_t <= t^-d |f|_t when f = z^d q + p with deg p < d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    t = _exact(t)
    if t <= 0:
        raise ValueError("need t > 0")
    return _upper_float(Fraction(1) / t**d)
