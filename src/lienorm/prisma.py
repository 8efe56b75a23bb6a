"""Finite-dimensional dynamics driving the iteration's norm bounds.

The state space is the prisma {t > s > 0} x R+.  The base map contracts
the pair (t, s) toward the diagonal; the full map is quadratic, squaring
the third coordinate against a pole factor.  A state may carry a fourth
coordinate alpha, which each step increases by the current x; a state
without one stays without.  Values enter through :func:`lienorm.num`:
``PrismaState`` coerces its coordinates and ``t_infinity`` its
arguments, so an int or ``Fraction`` is held as a ``Fraction`` and
anything else as a float.  From there plain arithmetic keeps everything
exact whenever the data are rational and the pole orders are integers,
so the closed forms can be asserted as exact equalities; one float
operand, or a fractional pole order, makes the result a float.  The
module works on scalars only and loads no series code.

The closed forms share one chain per start, for every pole order.  Its
partial products p_i = s_i/s_0 and Horner values q_i do not depend on
n, so the chain of the latest (state0, cfg) is kept and extended:
closed_form_xn for n = 0, 1, ..., N on one start walks it once, to N,
and gives the values and errors that separate walks give.  The walk
alone decides whether the trajectory stays in the prisma.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import fraction_str, num


class LeavesDomainError(ValueError):
    """The base iteration leaves its domain: ``t_infinity`` from
    s <= lambda*t, or ``step``, ``iterate`` and the closed forms at the
    first s_i <= 0."""


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

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise ValueError("need 0 < lambda < 1")
        if self.R <= 0:
            raise ValueError("need R > 0")
        if self.k < 0 or self.l < 0:
            raise ValueError("pole orders must be >= 0")


def t_infinity(t0, s0, lam):
    """Limit of the base iteration, (s0 - lam*t0) / (1 - lam); needs
    t0 >= s0 > 0 (the diagonal start t0 = s0 is fixed) and 0 < lam < 1."""
    t0, s0, lam = num(t0), num(s0), num(lam)
    if not (t0 >= s0 > 0 and 0 < lam < 1):
        raise ValueError("t_infinity needs t0 >= s0 > 0 and 0 < lambda < 1, "
                         "got t0=%s s0=%s lambda=%s" % (t0, s0, lam))
    if s0 <= lam * t0:
        raise LeavesDomainError("needs s0 > lambda*t0")
    return (s0 - lam * t0) / (1 - lam)


def rho(t, s, lam):
    """Per-step multiplier of s: 1 + lam - lam*t/s."""
    return 1 + lam - lam * t / s


def step(state: PrismaState, cfg: IterConfig) -> PrismaState:
    """(t,s,x) -> (s, s - lam*(t-s), x^2 / (R s^k (t-s)^l)), and alpha
    -> alpha + x when the state carries alpha; LeavesDomainError when the
    new s is <= 0."""
    t, s, x = state.t, state.s, state.x
    lam = cfg.lam
    s_next = s - lam * (t - s)
    if not s_next > 0:
        raise LeavesDomainError("prisma needs t > s > 0, got t=%s s=%s" % (s, s_next))
    x2 = x**2 / (cfg.R * s**cfg.k * (t - s) ** cfg.l)
    alpha = None if state.alpha is None else x + state.alpha
    return PrismaState(s, s_next, x2, alpha)


def invariant_bound(state: PrismaState, cfg: IterConfig):
    """The invariant set's cap R rho^k s^k lam^l (t-s)^l on x at (t, s)."""
    t, s, lam = state.t, state.s, cfg.lam
    return cfg.R * rho(t, s, lam) ** cfg.k * s**cfg.k * lam**cfg.l * (t - s) ** cfg.l


def in_invariant_set(state: PrismaState, cfg: IterConfig) -> bool:
    """Strict membership in {x < invariant_bound, s > lam t}."""
    return state.s > cfg.lam * state.t and state.x < invariant_bound(state, cfg)


def iterate(state: PrismaState, cfg: IterConfig, n: int) -> list[PrismaState]:
    """The trajectory [state, f(state), ..., f^n(state)] under ``step``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [state]
    for _ in range(n):
        out.append(step(out[-1], cfg))
    return out


# The chain of the latest start, (state0, cfg, t, s, ps, K, qs): see
# _chain.  Rebound whole and never mutated, so threads that race on it can
# only redo work.  It holds state0 and cfg themselves, so an identity match
# cannot come from a new object at a reused address.
_memo = None


def _chain(n: int, state0: PrismaState, cfg: IterConfig):
    """(K, ps, qs): the n-independent chain of the closed forms, through n.

    ps = (p_0, p_1, ...), at least through p_n, with p_i the product of
    rho(t_j, s_j) over j < i, which is s_i/s_0: LeavesDomainError at the
    first p_i <= 0.  K = R s0^k lam^l (t0-s0)^l, and the Horner values
    qs = (q_0, q_1, ...), at least through q_n, have q_0 = x0/K and
    q_{i+1} = q_i^2 / p_i^k.

    The chain of the latest (state0, cfg), matched by identity, is kept and
    extended, so the calls for n = 0, 1, ..., N walk it once.  Every value
    comes from the same operations in the same order as a fresh walk, so
    it is the same value, and an error is raised where a fresh walk raises
    it: K and q_0 come first, then ps reaches n before any further q_i is
    formed, so a domain error wins over a float overflow in q.
    """
    global _memo
    memo = _memo
    if memo is None or memo[0] is not state0 or memo[1] is not cfg:
        t, s = state0.t, state0.s
        K = cfg.R * s**cfg.k * cfg.lam**cfg.l * (t - s) ** cfg.l
        # p_0 is the empty product, exact iff t, s and lam are
        memo = (state0, cfg, t, s, (rho(t, s, cfg.lam) ** 0,), K, (state0.x / K,))
    _, _, t, s, ps, K, qs = memo
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = cfg.lam
    p = ps[-1]
    for i in range(len(ps), n + 1):
        p = p * rho(t, s, lam)
        if p <= 0:
            raise LeavesDomainError("s_%d <= 0: trajectory leaves the prisma" % i)
        t, s = s, s - lam * (t - s)
        ps += (p,)
    q = qs[-1]
    for i in range(len(qs), n + 1):
        q = q**2 / ps[i - 1] ** cfg.k
        qs += (q,)
    _memo = (state0, cfg, t, s, ps, K, qs)
    return K, ps, qs


def closed_form_xn(n: int, state0: PrismaState, cfg: IterConfig):
    """Exact unrolled solution of x_{i+1} = x_i^2 / (R s_i^k (t_i - s_i)^l):

        x_n = K^(1-2^n) lam^(l n) x0^(2^n) * prod_{i<n} p_i^(-k 2^(n-1-i))

    with K = R s0^k lam^l (t0-s0)^l and p_i the partial products of the
    s-multipliers rho(t_j, s_j).  For k = 0 the trailing product is 1 and
    this is the familiar displayed form; for k > 0 the displayed form
    (see closed_form_xn_bound) only bounds it from above.  Exact in
    rational arithmetic for rational data and integral k, l.  Raises
    LeavesDomainError where ``iterate`` leaves the prisma before x_n.

    The product is evaluated as x_n = K lam^(l n) q_n, where q_0 = x0/K
    and q_{i+1} = q_i^2 / p_i^k (Horner-style over the exponents 2^(n-1-i)).
    Multiplying the factors out separately would cross-reduce two
    fractions of thousands of bits at every product; here squaring needs
    no gcd and every other product has one small operand.  Neither the
    p_i nor the q_i depend on n: one chain per start is kept and extended
    (see _chain), so calls for n = 0, 1, ..., N on one start cost one
    walk to N.
    """
    K, _, qs = _chain(n, state0, cfg)
    return K * cfg.lam ** (cfg.l * n) * qs[n]


def closed_form_xn_bound(n: int, state0: PrismaState, cfg: IterConfig):
    """The displayed bound (R p_n^k s0^k lam^l (t0-s0)^l)^(1-2^n)
    lam^(l n) x0^(2^n); equals closed_form_xn when k = 0 and dominates
    it otherwise (the partial products p_i decrease in i).

    Evaluated as K_n (x0/K_n)^(2^n) lam^(l n), for the reason given in
    closed_form_xn: the power needs no gcd and each product that follows
    has one small operand.  p_n comes from the chain that closed_form_xn
    extends.  Raises as closed_form_xn does.
    """
    lam = cfg.lam
    p_n = _chain(n, state0, cfg)[1][n]
    K_n = (cfg.R * p_n**cfg.k * state0.s**cfg.k * lam**cfg.l
           * (state0.t - state0.s) ** cfg.l)
    return K_n * (state0.x / K_n) ** (2**n) * lam ** (cfg.l * n)


def _valid_witness(points, rho_cand):
    """Smallest C < 1 with |x_n| <= C^(rho^n) consistent with the data.

    Accepts only when the per-index implied constants log C_n, and the
    limit they extrapolate to, stay below -1e-9; returns None when the
    candidate fails.  The margin keeps a sequence that does not converge,
    such as a constant one, from passing once log C_n = log|x_n| / rho^n
    is too close to 0 for its rounding, or for the tail test, to tell.
    """
    try:
        logc = [math.log(x) / rho_cand**i for i, x in points]
    except OverflowError:  # rho^i beyond float range: C_i rounds to 1
        return None
    cmax = max(logc)
    if len(logc) >= 4:
        d1 = logc[-1] - logc[-2]
        d0 = logc[-2] - logc[-3]
        if d1 > 1e-15:
            # increasing toward a possible limit; demand geometric decay
            if d0 <= 0 or d1 > 0.98 * d0:
                return None
            q = d1 / d0
            cmax = max(cmax, logc[-1] + d1 * q / (1 - q))
    if cmax >= -1e-9:
        return None
    return math.exp(cmax)


def rapid_convergence_check(xs: Sequence[float],
                            rho: float = 2.0) -> tuple[bool, float, float]:
    """Search for a witness 0 <= C < 1 with |x_n| <= C^(rho^n).

    rho is the structural exponent of the iteration, never fitted: 2 for
    the quadratic prisma map, whose log|x_n| = A 2^n + O(n) breaks any
    claim with rho > 2 for large n.  A caller whose iteration has another
    structural exponent passes its own rho > 1.  Validation extrapolates
    the tail of the implied per-index constants |x_n|^(rho^-n) and
    demands a limit strictly below 1, which rejects polynomial and plain
    geometric decay.

    Zero entries satisfy any bound and are skipped.  Returns
    (ok, C, rho); on failure C and rho are NaN.
    """
    if len(xs) == 0:
        raise ValueError("need a nonempty sequence")
    if not rho > 1:
        raise ValueError("rho must be > 1")
    rho = float(rho)
    # Decided on the values as given: float() overflows on a huge Fraction.
    if any(abs(x) >= 1 for x in xs):
        return False, math.nan, math.nan
    # A value that underflows to 0.0 is skipped like a zero.
    floats = [abs(float(x)) for x in xs]
    points = [(i, x) for i, x in enumerate(floats) if x != 0]
    if not points:
        return True, 0.0, rho
    if any(x >= 1 for _, x in points):  # a value just below 1 can round to 1.0
        return False, math.nan, math.nan
    c = _valid_witness(points, rho)
    if c is None:
        return False, math.nan, math.nan
    return True, c, rho
