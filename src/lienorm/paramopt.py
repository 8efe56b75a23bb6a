"""Parameter optimization for the convergence certificate.

Two objectives: the basic one fixes r = 1/2 and maximizes the rational
function F(lambda, mu) = e*t_inf; the equalized one first balances the
two certificate inequalities, which pins r as a function of (lambda, mu),
and maximizes the resulting e*t_inf.  Both optimizers are deterministic
and run one pipeline (``_maximize``):

1. a coarse grid scan over the triangle 0 < lambda < mu < 1.  It
   evaluates one lambda row at a time through the objective's row
   kernel (``_grid_scan``), and the first point with the largest value
   seeds the simplex, as in a point-by-point scan.
   The Q scan builds the part of its rows that no n changes, the base
   r(1-mu)/(e mu) of t_inf, once per process (``_q_grid``), and
   finishes each point for a given n with one power;
2. Nelder-Mead from the best grid point (``minimize``, a pure-Python
   port of the simplex scipy runs, doing the same float operations, so
   results match scipy's bit for bit without importing it);
3. Newton steps on the complex-step gradient (the simplex alone cannot
   resolve the flat maximum to the accuracy the cubic-residual check
   needs).  Each step solves the symmetric 2x2 system in closed form
   (``_solve_sym2``, Cramer's rule) and the stop test takes the
   gradient norm with ``math.hypot``, so the module needs no numpy.

The certified domain radius is compared against the true inversion
radius R(n, beta); their ratio Q is minimized per n to reproduce the
reference table.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import statistics
from dataclasses import dataclass

E = math.e


@dataclass(frozen=True)
class OptResult:
    lambda_opt: float
    mu_opt: float
    r_opt: float | None
    objective: float  # e * t_inf
    t_inf: float
    iterations: int
    grad_norm: float

    def to_dict(self) -> dict:
        d = {
            "lambda": self.lambda_opt,
            "mu": self.mu_opt,
            "e_t_inf": self.objective,
            "t_inf": self.t_inf,
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
        }
        if self.r_opt is not None:
            d["r"] = self.r_opt
        return d


@dataclass(frozen=True)
class QRow:
    n: int
    lam: float
    mu: float
    Q: float
    true_radius: float
    certified_t_inf: float

    def to_dict(self) -> dict:
        return {
            "n": self.n, "lambda": self.lam, "mu": self.mu, "Q": self.Q,
            "true_radius": self.true_radius, "t_inf": self.certified_t_inf,
        }


def _check_triangle(lam, mu):
    if not (0 < lam.real < mu.real < 1):
        raise ValueError("need 0 < lambda < mu < 1, got (%s, %s)" % (lam, mu))


# Each objective is written once, as a row kernel: one lambda against the
# list of mu values of a grid row.  Factors of lambda alone are computed
# once per row; every other operation keeps the left-to-right order of
# the formula, so a value does not depend on the row it is computed in.
# The kernels skip the domain check; the public pointwise functions
# check and then evaluate a one-point row.  A row is all real or all
# complex (a complex step evaluates one-point rows), so its first value
# decides between math and cmath.


def _F_basic_row(lam, mus):
    one_plus, lam2, one_minus = 1 + lam, lam**2, 1 - lam
    return [(one_plus - lam / mu) * lam2 * (1 - mu) ** 2 / (2 * mu)
            * (mu - lam) / one_minus for mu in mus]


def F_basic(lam, mu):
    """(1 + lam - lam/mu) lam^2 (1-mu)^2 / (2 mu) * (mu-lam)/(1-lam).

    Equals e*t_inf for the r = 1/2 certificate chain at n = 3, beta = 1.
    Accepts complex arguments so gradients can be taken by complex step.
    """
    _check_triangle(lam, mu)
    return _F_basic_row(lam, (mu,))[0]


def _solve_r_row(nus):
    """For each nu, the root in (0, 1) of r/(1-r)^2 = nu:
    r = (1 + 2 nu - sqrt(1+4 nu))/(2 nu)."""
    if isinstance(nus[0], complex):
        sqrt = cmath.sqrt
    elif min(nus) <= 0:
        raise ValueError("need nu > 0")
    else:
        sqrt = math.sqrt
    return [(1 + 2 * nu - sqrt(1 + 4 * nu)) / (2 * nu) for nu in nus]


def _equal_bound_r_row(lam, mus):
    """The r that balances the two certificate inequalities:
    r/(1-r)^2 = 2 rho lam^2 mu (1-mu) with rho = 1 + lam - lam/mu."""
    one_plus, lam2 = 1 + lam, lam**2
    return _solve_r_row([2 * (one_plus - lam / mu) * lam2 * mu * (1 - mu)
                         for mu in mus])


def _equalized_row(lam, mus):
    one_minus = 1 - lam
    return [r * (1 - mu) / mu**2 * (mu - lam) / one_minus
            for r, mu in zip(_equal_bound_r_row(lam, mus), mus)]


def equalized_objective(lam, mu):
    """r(lam,mu) (1-mu)/mu^2 * (mu-lam)/(1-lam) with the equal-bound r.

    The balancing condition is r/(1-r)^2 = 2 rho lam^2 mu (1-mu); the
    value is again e*t_inf.
    """
    _check_triangle(lam, mu)
    return _equalized_row(lam, (mu,))[0]


def true_radius(n: int, beta) -> float:
    """(1/(n beta))^(1/(n-2)) sqrt(1 - 2/n): the inversion radius of
    z*sqrt(1 + 2 beta z^(n-2))."""
    if n < 3:
        raise ValueError("need n >= 3")
    if beta <= 0:
        raise ValueError("need beta > 0")
    return (1.0 / (n * beta)) ** (1.0 / (n - 2)) * math.sqrt(1.0 - 2.0 / n)


# t_inf is a base r(1-mu)/(e beta mu), which does not depend on n, and a
# finish that raises it to 1/(n-2); the Q scan stores the bases at
# beta = 1 once (``_q_grid``) and finishes them for each n.


def _base_row(lam, mus, beta):
    """r (1-mu)/(e beta mu) with the equal-bound r."""
    eb = E * beta
    return [r * (1 - mu) / (eb * mu)
            for r, mu in zip(_equal_bound_r_row(lam, mus), mus)]


def _finish_row(n, lam, mus, bases):
    power, one_minus = 1.0 / (n - 2), 1 - lam
    return [b ** power * (mu - lam) / (mu * one_minus) for b, mu in zip(bases, mus)]


def _t_inf_row(n, lam, mus, beta):
    return _finish_row(n, lam, mus, _base_row(lam, mus, beta))


def certified_t_inf(n: int, lam, mu, beta=1.0):
    """(r(1-mu)/(e beta mu))^(1/(n-2)) * (mu-lam)/(mu(1-lam)) with the
    equal-bound r."""
    if n < 3:
        raise ValueError("need n >= 3")
    _check_triangle(lam, mu)
    return _t_inf_row(n, lam, (mu,), beta)[0]


def _q_row(radius, tinfs):
    """radius / t_inf for each t_inf of a row; infinite where t_inf <= 0."""
    real = not isinstance(tinfs[0], complex)
    return [math.inf if real and t <= 0 else radius / t for t in tinfs]


def q_value(n: int, lam, mu):
    """Q = true_radius / certified_t_inf; independent of beta."""
    if n < 3:
        raise ValueError("need n >= 3")
    _check_triangle(lam, mu)
    return _q_row(true_radius(n, 1.0), _t_inf_row(n, lam, (mu,), 1.0))[0]


# -- deterministic maximization ----------------------------------------


@dataclass(frozen=True)
class SimplexResult:
    x: list[float]  # best vertex
    nit: int        # iterations, counted from 1 as scipy does
    nfev: int       # objective evaluations


class _OutOfEvaluations(Exception):
    pass


def _by_value(fsim, sim):
    """Vertices sorted stably by value, NaN last (numpy's argsort order)."""
    order = sorted(range(len(fsim)), key=lambda i: (math.isnan(fsim[i]), fsim[i]))
    return [fsim[i] for i in order], [sim[i] for i in order]


def minimize(fun, x0, *, xatol, fatol, maxiter, maxfev) -> SimplexResult:
    """Minimize fun(x) by the Nelder-Mead simplex (Nelder & Mead 1965,
    Comput. J. 7:308).

    A port of the non-adaptive method scipy.optimize.minimize runs for
    method="Nelder-Mead" (scipy 1.17, no bounds, default start simplex),
    doing the same float operations in the same order, so x, nit and
    nfev are scipy's to the bit.  Coefficients: reflection 1, expansion
    2, contraction 1/2, shrink 1/2.  Stops when every coordinate of
    every vertex is within xatol of the best one and every value within
    fatol of the best value (never on NaN), or when the evaluation or
    iteration budget is spent.
    """
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _OutOfEvaluations
        nfev += 1
        return fun(x)

    x0 = [float(v) for v in x0]
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * v if v != 0 else 0.00025] + x0[k + 1:]
                  for k, v in enumerate(x0)]
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _OutOfEvaluations:
        pass
    fsim, sim = _by_value(fsim, sim)
    nit = 1
    while nfev < maxfev and nit < maxiter:
        best, worst = sim[0], sim[-1]
        if (all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best))
                and all(abs(fsim[0] - v) <= fatol for v in fsim[1:])):
            break
        try:
            # summed in vertex order, as numpy reduces along axis 0
            xbar = [functools.reduce(operator.add, c) / n for c in zip(*sim[:-1])]
            xr = [2 * c - w for c, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [3 * c - 2 * w for c, w in zip(xbar, worst)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # contract outside
                    xc = [1.5 * c - 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # contract inside
                    xc = [0.5 * c + 0.5 * w for c, w in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = [b + 0.5 * (v - b) for v, b in zip(sim[j], best)]
                        fsim[j] = f(sim[j])
            nit += 1
        except _OutOfEvaluations:
            pass
        fsim, sim = _by_value(fsim, sim)
    return SimplexResult(sim[0], nit, nfev)


def _complex_step_grad(f, lam, mu, h=1e-20):
    return f(complex(lam, h), mu).imag / h, f(lam, complex(mu, h)).imag / h


def _solve_sym2(a, b, d, g0, g1):
    """The solution of [[a, b], [b, d]] x = (g0, g1) by Cramer's rule;
    None when the determinant is 0."""
    det = a * d - b * b
    if det == 0:
        return None
    return (d * g0 - b * g1) / det, (a * g1 - b * g0) / det


def _newton_polish(f, x0, tol=1e-13, iters=60):
    """Newton on the complex-step gradient; Hessian by central differences
    of the gradient, symmetrized.  Returns (x, gradient norm at x,
    iterations)."""
    grad = lambda lam, mu: _complex_step_grad(f, lam, mu)
    h = 1e-6
    diff = lambda plus, minus: [(p - m) / (2 * h) for p, m in zip(plus, minus)]
    lam, mu = (float(v) for v in x0)
    for it in range(iters):
        g = grad(lam, mu)
        if math.hypot(*g) < tol:
            break
        hx = diff(grad(lam + h, mu), grad(lam - h, mu))
        hy = diff(grad(lam, mu + h), grad(lam, mu - h))
        delta = _solve_sym2(hx[0], (hy[0] + hx[1]) / 2, hy[1], *g)
        if delta is None or not 0 < lam - delta[0] < mu - delta[1] < 1:
            break
        lam, mu = lam - delta[0], mu - delta[1]
    else:  # every iteration stepped: the norm at the returned point
        g = grad(lam, mu)
    return (lam, mu), math.hypot(*g), it + 1


def _linspace(start, stop, num):
    """np.linspace(start, stop, num) to the bit: start + i*step, then stop."""
    step = (stop - start) / (num - 1)
    return [i * step + start for i in range(num - 1)] + [stop]


def _grid_rows(resolution):
    """Each non-empty lambda row of the grid over 0 < lambda < mu < 1, in
    lambda-major order, as (lam, mus)."""
    for lam in _linspace(1e-3, 0.999, resolution):
        mus = [mu for mu in _linspace(lam + 1e-3, 0.999, resolution)
               if 0 < lam < mu < 1]
        if mus:
            yield lam, mus


def _grid_scan(row, rows):
    """The first grid point (lambda-major order) with the largest value.

    ``rows`` yields (lam, mus, *data) per lambda row and ``row(lam, mus,
    *data)`` evaluates it; each row's first maximum competes with the best
    of the earlier rows, and only a strictly larger one replaces it, so
    ties go to the first point as in a point-by-point scan.
    """
    best = None
    for lam, mus, *data in rows:
        vals = row(lam, mus, *data)
        top = max(vals)
        if best is None or top > best[0]:
            best = (top, lam, mus[vals.index(top)])
    return best[1], best[2]


def _maximize(f, start, xatol=1e-10):
    """Nelder-Mead and Newton on the pointwise ``f`` from the grid point
    ``start``.  Returns (x, gradient norm, iterations)."""
    guarded = lambda p: (-f(p[0], p[1])
                         if 0 < p[0] < p[1] < 1 else math.inf)
    res = minimize(guarded, start, xatol=xatol, fatol=1e-13,
                   maxiter=10_000, maxfev=10_000)
    x, gnorm, nit = _newton_polish(f, res.x)
    return x, gnorm, res.nit + nit


def maximize_basic() -> OptResult:
    """Deterministic maximum of F_basic over 0 < lambda < mu < 1.

    The optimum satisfies 8 mu^3 - 4 mu^2 - 7 mu + 4 = 0 and
    lambda = 8 mu^2 + 2 mu - 4; those identities are left to the tests,
    the optimizer itself never uses them.
    """
    x, gnorm, nit = _maximize(F_basic, _grid_scan(_F_basic_row, _grid_rows(200)))
    val = F_basic(*x)
    return OptResult(x[0], x[1], None, val, val / E, nit, gnorm)


def maximize_equalized() -> OptResult:
    x, gnorm, nit = _maximize(equalized_objective,
                              _grid_scan(_equalized_row, _grid_rows(200)))
    val = equalized_objective(*x)
    r = _equal_bound_r_row(x[0], (x[1],))[0]
    return OptResult(x[0], x[1], r, val, val / E, nit, gnorm)


@functools.cache
def _q_grid(resolution):
    """The grid rows of the Q scan with the bases of t_inf at beta = 1,
    as (lam, mus, bases).  No base depends on n, and Q does not depend
    on beta, so the rows are built on the first scan and kept for the
    process, as ``array('d')``: 0.26 MB at resolution 120 on 64-bit
    CPython, against 0.94 MB as lists of floats."""
    # a shared library: loaded on the first scan, not at import
    from array import array

    return tuple((lam, array("d", mus), array("d", _base_row(lam, mus, 1.0)))
                 for lam, mus in _grid_rows(resolution))


def _q_seed(n):
    """The first point of the 120 x 120 grid with the smallest Q(n)."""
    radius = true_radius(n, 1.0)
    row = lambda lam, mus, bases: [
        -q for q in _q_row(radius, _finish_row(n, lam, mus, bases))]
    return _grid_scan(row, _q_grid(120))


def minimize_q(n: int) -> QRow:
    """Per-n minimum of Q over the triangle, seeded from a 120 x 120 grid."""
    if n < 3:
        raise ValueError("need n >= 3")
    f = lambda lam, mu: -q_value(n, lam, mu)
    (lam, mu), _, _ = _maximize(f, _q_seed(n), xatol=1e-11)
    tinf = certified_t_inf(n, lam, mu, 1.0)
    return QRow(n, lam, mu, true_radius(n, 1.0) / tinf, true_radius(n, 1.0), tinf)


def q_table(ns) -> list[QRow]:
    return [minimize_q(int(n)) for n in ns]


# -- independent radius oracle ------------------------------------------


def _log_abs_inverse_coeff(m: int, n: int, beta: float):
    """log |psi_m| for the inverse of z sqrt(1 + 2 beta z^(n-2)).

    The inverse coefficients have the closed form
    psi_m = (1/m) C(-m/2, j) (2 beta)^j with j = (m-1)/(n-2) (zero when
    that is not an integer), obtained by expanding (1 + 2 beta w^(n-2))
    to the power -m/2 under the classical inversion integral.  Evaluated
    in log space via lgamma so no overflow occurs.
    """
    d = n - 2
    if (m - 1) % d != 0:
        return None
    j = (m - 1) // d
    if j == 0:
        return -math.log(m)
    lb = math.lgamma(m / 2 + j) - math.lgamma(m / 2) - math.lgamma(j + 1)
    return -math.log(m) + lb + j * math.log(2 * beta)


def radius_oracle_series(n: int, beta) -> float:
    """Numeric estimate of the inversion radius by the root test.

    Computes |psi_m|^(-1/m) for m = 2..200 and removes the leading 1/m
    bias by Richardson extrapolation over the tail, taking a median for
    robustness.  Independent of the closed form true_radius.
    """
    if n < 3 or beta <= 0:
        raise ValueError("need n >= 3 and beta > 0")
    ms, roots = [], []
    for m in range(2, 201):
        la = _log_abs_inverse_coeff(m, n, float(beta))
        if la is None:
            continue
        ms.append(m)
        roots.append(math.exp(-la / m))
    if len(ms) < 8:
        raise ValueError("too few nonzero coefficients below 200 terms")
    tail = max(4, len(ms) // 3)
    extrapolated = []
    for i in range(len(ms) - tail, len(ms) - 1):
        m1, m2 = ms[i], ms[i + 1]
        extrapolated.append((m2 * roots[i + 1] - m1 * roots[i]) / (m2 - m1))
    return statistics.median(extrapolated)
