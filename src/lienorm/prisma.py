"""Finite-dimensional dynamics driving the iteration's norm bounds.

The state space is the prisma {t > s > 0} x R+.  The base map contracts
the pair (t, s) toward the diagonal; the full map squares the third
coordinate against a pole factor.  Values enter through
:func:`lienorm.power_series.num`: ``PrismaState`` coerces its
coordinates and ``base_step`` and ``t_infinity`` their arguments, so an
int or ``Fraction`` is held as a ``Fraction`` and anything else as a
float.  From there plain arithmetic keeps everything exact whenever the
data are rational and the pole orders are integers, so the closed forms
can be asserted as exact equalities; one float operand, or a fractional
pole order, makes the result a float.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .power_series import fraction_str, num


class LeavesDomainError(ValueError):
    """Base iteration started at s <= lambda*t, which exits the prisma."""


class NonpositiveLimitError(ValueError):
    """t_infinity would be <= 0 (needs s0 > lambda*t0)."""


@dataclass(frozen=True)
class PrismaState:
    t: object
    s: object
    x: object
    alpha: object | None = None

    def __post_init__(self):
        for name in ("t", "s", "x", "alpha"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, num(value))
        if not (self.t > self.s > 0):
            raise ValueError("prisma needs t > s > 0, got t=%s s=%s" % (self.t, self.s))
        if self.x < 0:
            raise ValueError("x must be >= 0")

    def to_dict(self) -> dict:
        d = {"t": fraction_str(self.t), "s": fraction_str(self.s),
             "x": fraction_str(self.x)}
        if self.alpha is not None:
            d["alpha"] = fraction_str(self.alpha)
        return d


@dataclass(frozen=True)
class IterConfig:
    R: object
    k: object = 0
    l: object = 1
    lam: object = Fraction(1, 2)
    d: int = 2

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise ValueError("need 0 < lambda < 1")
        if self.R <= 0:
            raise ValueError("need R > 0")
        if self.k < 0 or self.l < 0:
            raise ValueError("pole orders must be >= 0")
        if self.d < 2:
            raise ValueError("exponent d must be >= 2")


def base_step(t, s, lam):
    """One step of (t, s) -> (s, s - lam*(t - s)); needs t > s > lam*t."""
    t, s, lam = num(t), num(s), num(lam)
    if not t > s > 0:
        raise ValueError("need t > s > 0")
    if s <= lam * t:
        raise LeavesDomainError("s <= lambda*t: iteration leaves the prisma")
    return s, s - lam * (t - s)


def t_infinity(t0, s0, lam):
    """Limit of the base iteration, (s0 - lam*t0) / (1 - lam)."""
    t0, s0, lam = num(t0), num(s0), num(lam)
    if s0 <= lam * t0 and s0 != t0:
        raise NonpositiveLimitError("needs s0 > lambda*t0")
    return (s0 - lam * t0) / (1 - lam)


def rho(t, s, lam):
    """Per-step multiplier of s: 1 + lam - lam*t/s."""
    return 1 + lam - lam * t / s


def step(state: PrismaState, cfg: IterConfig) -> PrismaState:
    """(t,s,x) -> (s, s - lam*(t-s), x^d / (R s^k (t-s)^l))."""
    t, s, x = state.t, state.s, state.x
    lam = cfg.lam
    x2 = x**cfg.d / (cfg.R * s**cfg.k * (t - s) ** cfg.l)
    return PrismaState(s, s - lam * (t - s), x2, state.alpha)


def param_step(state: PrismaState, cfg: IterConfig) -> PrismaState:
    """Parametric variant: fourth coordinate accumulates x."""
    if state.alpha is None:
        raise ValueError("param_step needs a state with alpha")
    return replace(step(state, cfg), alpha=state.x + state.alpha)


def in_invariant_set(state: PrismaState, cfg: IterConfig) -> bool:
    """Strict membership in {x < R rho^k s^k lam^l (t-s)^l, s > lam t}."""
    t, s, x = state.t, state.s, state.x
    lam = cfg.lam
    if not s > lam * t:
        return False
    bound = cfg.R * rho(t, s, lam) ** cfg.k * s**cfg.k * lam**cfg.l * (t - s) ** cfg.l
    return x < bound


def iterate(state: PrismaState, cfg: IterConfig, n: int,
            parametric: bool = False) -> list[PrismaState]:
    """The trajectory [state, f(state), ..., f^n(state)]."""
    out = [state]
    stepper = param_step if parametric else step
    for _ in range(n):
        out.append(stepper(out[-1], cfg))
    return out


def _partial_rho_products(n: int, state0: PrismaState, cfg: IterConfig):
    """[p_0, ..., p_n] with p_i the product of rho(t_j, s_j) over j < i."""
    lam = cfg.lam
    t, s = state0.t, state0.s
    p = rho(t, s, lam) ** 0  # the empty product, exact iff t, s and lam are
    out = [p]
    for _ in range(n):
        p = p * rho(t, s, lam)
        t, s = s, s - lam * (t - s)
        out.append(p)
    return out


def closed_form_xn(n: int, state0: PrismaState, cfg: IterConfig):
    """Exact unrolled solution of x_{i+1} = x_i^2 / (R s_i^k (t_i - s_i)^l):

        x_n = K^(1-2^n) lam^(l n) x0^(2^n) * prod_{i<n} p_i^(-k 2^(n-1-i))

    with K = R s0^k lam^l (t0-s0)^l and p_i the partial products of the
    s-multipliers rho(t_j, s_j).  For k = 0 the trailing product is 1 and
    this is the familiar displayed form; for k > 0 the displayed form
    (see closed_form_xn_bound) only bounds it from above.  Exact in
    rational arithmetic for rational data and integral k, l; quadratic
    case d = 2 only.

    The product is evaluated as x_n = K lam^(l n) q_n, where q_0 = x0/K
    and q_{i+1} = q_i^2 / p_i^k (Horner-style over the exponents 2^(n-1-i)),
    so q_n = (x0/K)^(2^n) when k = 0.  Multiplying the factors out
    separately would cross-reduce two fractions of thousands of bits at
    every product; here squaring needs no gcd and every other product has
    one small operand.
    """
    if cfg.d != 2:
        raise ValueError("closed form is stated for d = 2 only")
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = cfg.lam
    K = cfg.R * state0.s**cfg.k * lam**cfg.l * (state0.t - state0.s) ** cfg.l
    q = state0.x / K
    if cfg.k == 0:
        q = q ** (2**n)
    else:
        for p in _partial_rho_products(n, state0, cfg)[:-1]:
            q = q**2 / p**cfg.k
    return K * lam ** (cfg.l * n) * q


def closed_form_xn_bound(n: int, state0: PrismaState, cfg: IterConfig):
    """The displayed bound (R p_n^k s0^k lam^l (t0-s0)^l)^(1-2^n)
    lam^(l n) x0^(2^n); equals closed_form_xn when k = 0 and dominates
    it otherwise (the partial products p_i decrease in i).

    Evaluated as K_n (x0/K_n)^(2^n) lam^(l n), for the reason given in
    closed_form_xn: the power needs no gcd and each product that follows
    has one small operand.
    """
    if cfg.d != 2:
        raise ValueError("closed form is stated for d = 2 only")
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = cfg.lam
    p_n = _partial_rho_products(n, state0, cfg)[-1]
    K_n = (cfg.R * p_n**cfg.k * state0.s**cfg.k * lam**cfg.l
           * (state0.t - state0.s) ** cfg.l)
    return K_n * (state0.x / K_n) ** (2**n) * lam ** (cfg.l * n)


def _tail_ratios(points: Sequence[tuple[int, float]]) -> list[float]:
    """Normalized log-ratios log|x_j|/log|x_i| between consecutive entries."""
    out = []
    for (i, a), (j, b) in zip(points, points[1:]):
        out.append((math.log(b) / math.log(a)) ** (1.0 / (j - i)))
    return out


def _valid_witness(points, rho_cand):
    """Smallest C < 1 with |x_n| <= C^(rho^n) consistent with the data.

    Accepts only when the per-index implied constants C_n extrapolate to
    a limit strictly below 1; returns None when the candidate fails.
    """
    logc = [math.log(x) / rho_cand**i for i, x in points]
    cmax = max(logc)
    if cmax >= 0:
        return None
    if len(logc) >= 4:
        d1 = logc[-1] - logc[-2]
        d0 = logc[-2] - logc[-3]
        if d1 > 1e-15:
            # increasing toward a possible limit; demand geometric decay
            if d0 <= 0 or d1 > 0.98 * d0:
                return None
            q = d1 / d0
            limit = logc[-1] + d1 * q / (1 - q)
            if limit >= -1e-9:
                return None
            cmax = max(cmax, limit)
    return math.exp(cmax)


def rapid_convergence_check(xs: Sequence[float],
                            rho: float | None = None) -> tuple[bool, float, float]:
    """Search for witnesses 0 <= C < 1, rho > 1 with |x_n| <= C^(rho^n).

    Without an explicit exponent, rho is fitted by least squares on
    log(-log|x_n|) and validated alongside the canonical quadratic value
    2 (witness validity is downward closed in rho, so the larger of the
    two supportable claims is reported).  Validation extrapolates the
    tail of the implied per-index constants |x_n|^(rho^-n) and demands a
    limit strictly below 1, which rejects polynomial and plain geometric
    decay; the practical search window is rho in (1.1, 4].  Callers that
    know the structural exponent (2 for a quadratic iteration) can pass
    it as rho and only that claim is validated.  With fewer than four
    nonzero entries there is nothing to fit, and the witness reported is
    the one for rho = 2.

    Zero entries satisfy any bound and are skipped.  Returns
    (ok, C, rho); on failure C and rho are NaN.
    """
    if len(xs) == 0:
        raise ValueError("need a nonempty sequence")
    # Decided on the values as given: float() overflows on a huge Fraction.
    if any(abs(x) >= 1 for x in xs):
        return False, math.nan, math.nan
    # A value that underflows to 0.0 is skipped like a zero.
    floats = [abs(float(x)) for x in xs]
    points = [(i, x) for i, x in enumerate(floats) if x != 0]
    if not points:
        return True, 0.0, rho if rho else 2.0
    if any(x >= 1 for _, x in points):  # a value just below 1 can round to 1.0
        return False, math.nan, math.nan
    if rho is not None:
        if not rho > 1:
            raise ValueError("explicit rho must be > 1")
        c = _valid_witness(points, float(rho))
        if c is None:
            return False, math.nan, math.nan
        return True, c, float(rho)
    if len(points) < 4:
        # too few points to fit rho; the quadratic claim has a witness
        return True, _valid_witness(points, 2.0), 2.0
    ratios = _tail_ratios(points)
    tail = ratios[len(ratios) // 2 :]
    if min(tail) < 1.12 or statistics.median(tail) < 1.15:
        return False, math.nan, math.nan
    # numpy only here: the lstsq rounding reaches the reported rho
    import numpy as np

    ys = [math.log(-math.log(x)) for _, x in points]
    ns = [i for i, _ in points]
    a_mat = np.vstack([np.ones(len(ns)), ns]).T
    coef, *_ = np.linalg.lstsq(a_mat, np.array(ys), rcond=None)
    rho_fit = min(max(float(math.exp(coef[1])), 1.11), 4.0)
    for cand in sorted({2.0, rho_fit}, reverse=True):
        c = _valid_witness(points, cand)
        if c is not None:
            return True, c, cand
    return False, math.nan, math.nan
