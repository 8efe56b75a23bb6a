"""Certified norm machinery on discs.

The sup norm of a truncated series on the closed disc of radius t is
bounded above by the majorant norm sum(|a_n| t^n); the bound is an
equality when all coefficients are nonnegative.  All comparisons that
certify inequalities (Cauchy-Nagumo, order filtration, weight sums) are
carried out in exact rational arithmetic when the inputs allow it;
reported float values carry a directed-rounding slack factor 1 + 2**-40
so they stay certified upper bounds.

Local-operator bounds compose (compose_local_bounds), and an infinite
composition of exponentials is bounded by 1/(1 - sum of normalized
norms) (compose_exponentials_bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .power_series import TruncSeries

_SLACK = 1 + 2.0**-40


class DivergenceError(ValueError):
    """A bound diverges: the evaluation point is outside the radius of
    convergence, a sum of normalized norms reaches 1, or an
    order-filtration norm is infinite."""


class InconclusiveError(ValueError):
    """The check cannot certify a verdict (no closed-form tail)."""


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
    """Float upper bound of an exact value; dyadic values pass through
    unchanged, anything else gets the directed-rounding slack."""
    f = float(x)
    if Fraction(f) == x:
        return f
    if Fraction(f) < x:
        f = math.nextafter(f, math.inf)
    return f * _SLACK if f > 0 else f


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
        g = g.derivative()
    lhs = _majorant_exact(g, s)
    rhs = Fraction(math.factorial(k)) / (t - s) ** k * _majorant_exact(f, t)
    return lhs <= rhs


def order_filtration_norm(f: TruncSeries, k, t) -> float:
    """sup over 0 < s <= t of s^-k |f|_s.

    For a truncated series the majorant is a polynomial with nonnegative
    coefficients, so s^-k |f|_s is a sum of monomials s^(j-k) with
    j >= order(f); when order(f) >= k every exponent is >= 0, the sup is
    attained at s = t and is computed analytically.  Otherwise the sup is
    infinite and DivergenceError is raised.
    """
    kx = _exact(k)
    if kx < 0:
        raise ValueError("k must be >= 0")
    tx = _exact(t)
    if tx <= 0:
        raise ValueError("radius must be positive")
    if not f.is_zero() and Fraction(f.order) < kx:
        raise DivergenceError(
            "leading order %s below filtration index %s" % (f.order, k)
        )
    if f.is_zero():
        return 0.0
    if kx.denominator == 1:
        # exact path: s^-k |f|_s = |g|_s with g = f / z^k, monotone in s
        q, _ = f.weierstrass_div_monomial(int(kx))
        return _upper_float(_majorant_exact(q, tx))
    tf = float(tx)
    acc = 0.0
    for j, c in enumerate(f.coeffs):
        if c:
            acc += abs(float(c)) * tf ** (j - float(kx))
    return acc * _SLACK


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


def compose_exponentials_bound(nus) -> float:
    """Operator-norm bound 1/(1 - sum(nu_i)) for an infinite composition
    of exponentials with normalized norms nu_i = ||u_i||/(t_i - t_{i+1})."""
    nus = list(nus)
    if any(nu < 0 for nu in nus):
        raise ValueError("normalized norms must be >= 0")
    sigma = sum(nus)
    if sigma >= 1:
        raise DivergenceError("sum of normalized norms is %g >= 1" % sigma)
    return 1.0 / (1.0 - sigma)


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


def hilbert_to_sup_bound(n: int = 1) -> LocalOpBound:
    """(0,n)-local bound for restriction from the L2 disc norm to the sup
    norm in dimension n; the constant is 1/sqrt(C(0)) = pi^(-n/2)."""
    return LocalOpBound(math.pi ** (-n / 2.0), 0.0, float(n))


def borel_bound(fmaj: TruncSeries, x) -> float:
    """|f|(x) for a stored majorant series with nonnegative coefficients."""
    if any(c < 0 for c in fmaj.coeffs):
        raise ValueError("majorant series must have nonnegative coefficients")
    if x < 0:
        raise ValueError("need x >= 0")
    return float(fmaj.eval_at(_exact(x))) * _SLACK


def geometric_borel_bound(x) -> float:
    """Closed form 1/(1-x) for the geometric majorant (the exponential
    case of the operator transform); diverges at x >= 1."""
    if x < 0:
        raise ValueError("need x >= 0")
    if x >= 1:
        raise DivergenceError("geometric majorant diverges at x >= 1")
    return 1.0 / (1.0 - float(x))


class WeightSequence:
    """A family of increasing weight functions lambda_n on (0, 1].

    kind 'geometric' is lambda_n(s) = s**(a*n); 'hilbert' (dimension 1)
    is sqrt(pi/(n+1)) s**(n+1); 'constant' is lambda_n = 1.  Each kind is
    a formula in n, so lambda_p_check sums over all n, never a table.
    """

    def __init__(self, kind: str, a: Fraction | int = 1):
        if kind not in ("geometric", "hilbert", "constant"):
            raise ValueError("unknown weight kind %r" % kind)
        self.kind = kind
        self.a = Fraction(a)

    def weight(self, n: int, s: float) -> float:
        if self.kind == "geometric":
            return float(s) ** (float(self.a) * n)
        if self.kind == "hilbert":
            return math.sqrt(math.pi / (n + 1)) * float(s) ** (n + 1)
        return 1.0

    def is_monotone_on_grid(self, n: int, grid: Sequence[float]) -> bool:
        vals = [self.weight(n, s) for s in sorted(grid)]
        return all(b >= a for a, b in zip(vals, vals[1:]))


def _ratio_sum(lam: WeightSequence, mu: WeightSequence, p: float, s, t):
    """sum over i of (mu_i(s)/lambda_i(t))^p, exact when the term ratio
    is genuinely geometric; raises InconclusiveError otherwise.

    geometric and constant weights are log-linear in the index and mix
    freely; hilbert weights carry an algebraic prefactor that only
    cancels against another hilbert sequence, so other pairings have no
    sound closed form here.
    """
    log_linear = ("geometric", "constant")
    both_hilbert = lam.kind == "hilbert" and mu.kind == "hilbert"
    if not both_hilbert and not (lam.kind in log_linear and mu.kind in log_linear):
        raise InconclusiveError(
            "no closed-form tail for weight kinds %r, %r" % (lam.kind, mu.kind)
        )
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
    by _ratio_sum.  A pairing without a closed form raises
    InconclusiveError: a partial sum only bounds the sum from below, so
    it cannot certify True.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    for s, t in grid:
        if not 0 < s < t:
            raise ValueError("grid points need 0 < s < t, got (%s, %s)" % (s, t))
        if _ratio_sum(lam, mu, p, s, t) > C / (t - s) ** alpha:
            return False
    return True


def hilbert_weight(index: Sequence[int] | int, s: float, n: int = 1) -> float:
    """sqrt(prod_k pi/(i_k+1)) * s^(n+|I|) for a multi-index I in dim n."""
    if isinstance(index, int):
        index = (index,)
    if len(index) != n:
        raise ValueError("multi-index length %d != dimension %d" % (len(index), n))
    if s <= 0:
        raise ValueError("need s > 0")
    c = 1.0
    for ik in index:
        if ik < 0:
            raise ValueError("multi-index entries must be >= 0")
        c *= math.pi / (ik + 1)
    return math.sqrt(c) * float(s) ** (n + sum(index))


def division_bound(d: int, t) -> float:
    """Certified factor 1/eps(t) = t^-d for monomial Weierstrass division:
    |q|_t <= t^-d |f|_t when f = z^d q + p with deg p < d."""
    if d < 0:
        raise ValueError("d must be >= 0")
    t = _exact(t)
    if t <= 0:
        raise ValueError("need t > 0")
    return _upper_float(Fraction(1) / t**d)
