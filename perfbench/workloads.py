"""Seeded job batches for the three workloads, each job with its check.

build(workload, seed) returns a list of Jobs.  The seed fixes every
input; the number and kinds of jobs do not depend on it, so runs with
different seeds stay comparable.  An in-process job has ``call``, which
calls lienorm and returns what the check needs; a cli_cold job has
``argv`` for ``python -m lienorm.cli`` and the exit code it must give.
``check(output)`` compares against oracles.py and returns None when the
output is right, else a short description of the mismatch.  Checks
compute their reference when they run and never call lienorm, so they
neither add to set-up time nor show up in traces.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles

WORKLOADS = ("formal_deep", "certified", "cli_cold")


@dataclass
class Job:
    kind: str
    params: dict
    check: Callable[[object], str | None]
    call: Callable[[], object] | None = None
    argv: list[str] = field(default_factory=list)
    exit_code: int = 0


def _p(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _rational(rng, lo, hi, sign=False) -> Fraction:
    """p/q with p, q drawn from lo..hi; negative half the time if sign."""
    x = Fraction(rng.randint(lo, hi), rng.randint(lo, hi))
    return -x if sign and rng.random() < 0.5 else x


def _first_mismatch(got: dict, want: dict) -> str | None:
    for key in want:
        if got.get(key) != want[key]:
            return "%s: got %s, want %s" % (key, got.get(key), want[key])
    return None


def _bundle(kind, parts) -> Job:
    """One job that runs several parts in turn and checks each of them."""
    def call():
        return [part.call() for part in parts]

    def check(outs):
        for part, out in zip(parts, outs):
            problem = part.check(out)
            if problem:
                return "%s: %s" % (part.kind, problem)
        return None
    return Job(kind, {"parts": [dict(part.params, kind=part.kind) for part in parts]},
               check, call)


# -- formal level ----------------------------------------------------------

def _normalizer_check(n, beta, steps):
    def check(out):
        psi_trunc, coeffs = out
        orders = oracles.normalizer_final_orders(steps, psi_trunc)
        if len(orders) < 2 ** steps:
            return "normalizer known only to z^%d" % psi_trunc
        return _first_mismatch(
            {m: coeffs[m] for m in orders},
            {m: oracles.normalizer_coeff(m, n, beta) for m in orders})
    return check


def deep_job(ln, beta, steps) -> Job:
    """lie_iterate_formal + normalizer_series on z^2/2 + beta z^3."""
    nf, ts = ln.normalform, ln.power_series.TruncSeries

    def call():
        order = nf.default_trunc_order(steps)
        trace = nf.lie_iterate_formal(nf.quadratic_normal_form(order),
                                      ts.monomial(3, order, beta), steps)
        psi = nf.normalizer_series(trace)
        leading = [(r.b.order, r.b[r.b.order]) for r in trace.rounds[3:5]]
        return [r.v.order for r in trace.rounds], leading, psi.trunc_order, psi.coeffs

    psi_check = _normalizer_check(3, beta, steps)

    def check(out):
        v_orders, leading, psi_trunc, coeffs = out
        # criterion 3: the derivation orders double
        if v_orders != [2**i + 1 for i in range(steps + 1)]:
            return "derivation orders %s" % v_orders
        # criterion 1: printed leading remainders of the worked example
        if beta == 1 and steps >= 4 and leading != [(10, Fraction(-243, 4)),
                                                    (18, Fraction(-295245, 16))]:
            return "leading remainders %s" % leading
        return psi_check((psi_trunc, coeffs))
    return Job("lie_iterate+normalizer", {"n": 3, "beta": _p(beta), "steps": steps},
               check, call)


def _formal_deep(rng, ln):
    """One job: steps=5 (N=68) on z^2/2 + beta z^3 with beta = 1 and
    with beta = +-3/2, in an order the seed picks.

    The two computations are one job because their costs differ: a
    median over jobs of two costs jumps between them.  The seed picks the
    sign of the second beta and the order, not the size of beta.  Every
    coefficient the computation makes is a fixed rational times a power
    of beta, so beta and -beta give numbers of the same size, and every
    seed a job of the same cost."""
    parts = [deep_job(ln, Fraction(1), 5),
             deep_job(ln, rng.choice([1, -1]) * Fraction(3, 2), 5)]
    rng.shuffle(parts)
    return [_bundle("lie_iterate+normalizer", parts)]


# -- certified level -------------------------------------------------------

def _optimizer_jobs(ln):
    po = ln.paramopt

    def basic(res):
        mu = res.mu_opt
        if abs(8 * mu**3 - 4 * mu**2 - 7 * mu + 4) >= oracles.BASIC_CUBIC_TOL:
            return "mu_opt misses the cubic"
        got = {"lambda": res.lambda_opt, "mu": mu, "t_inf": res.t_inf}
        return _off_reference(got, oracles.BASIC)

    def equalized(res):
        got = {"lambda": res.lambda_opt, "mu": res.mu_opt,
               "e_t_inf": res.objective, "t_inf": res.t_inf}
        return _off_reference(got, oracles.EQUALIZED)

    # every call looks lienorm's functions up when it runs, so the tracer's
    # wrappers are the ones called once installed
    jobs = [Job("maximize_basic", {}, basic, lambda: po.maximize_basic()),
            Job("maximize_equalized", {}, equalized, lambda: po.maximize_equalized())]
    for n, q in oracles.Q_REFERENCE.items():
        def check(rows, n=n, q=q):
            (row,) = rows
            if row.n != n or abs(row.Q - q) >= oracles.Q_TOL:
                return "Q(%d) = %r, want %r" % (row.n, row.Q, q)
            if not 0 < row.lam < row.mu < 1:
                return "Q(%d) optimum outside the triangle" % n
            return None
        jobs.append(Job("q_table", {"n": n}, check, lambda n=n: po.q_table([n])))
    return jobs


def _off_reference(got: dict, ref: dict) -> str | None:
    for key, want in ref.items():
        if not oracles.within(got[key], want):
            return "%s = %r, want %r +- %g" % (key, got[key], want[0], want[1])
    return None


def _chain_check(got, want) -> str | None:
    if len(got) != len(want):
        return "trajectory has %d points, want %d" % (len(got), len(want))
    for i, (g, w) in enumerate(zip(got, want)):
        if not all(oracles.close(a, b, 1e-9) for a, b in zip(g, w)):
            return "trajectory point %d: %s, want %s" % (i, g, w)
    return None


def _certificate_jobs(rng, ln):
    nf, pr = ln.normalform, ln.prisma

    def morse_call():
        t0 = nf.threshold_T0(Fraction(1, 4), Fraction(1, 2), Fraction(1, 2), 1, 3)
        return t0, (0.5 - 0.25) / (1 - 0.25) * t0

    def morse_check(out):
        t0, t_inf = out
        if abs(t0 - 3 / (256 * math.e)) >= 1e-15:
            return "T0 = %r, want 3/(256 e)" % t0
        return _off_reference({"T0": t0, "t_inf": t_inf},
                              {"T0": oracles.T0_MORSE, "t_inf": oracles.T_INF_MORSE})

    jobs = [Job("threshold_T0", {"config": "morse"}, morse_check, morse_call)]
    steps = 8
    for _ in range(16):
        lam = Fraction(rng.randint(1, 7), 8)
        mu = lam + (1 - lam) * Fraction(rng.randint(1, 7), 8)
        r = Fraction(rng.randint(1, 7), 8)
        beta = _rational(rng, 1, 9)
        n = rng.randint(3, 10)
        t0_ref = oracles.threshold_T0(lam, mu, r, beta, n)
        # t0 well inside / outside the admissible range, so float rounding
        # in the certificate cannot flip the verdict
        t0_in = t0_ref * rng.randint(2, 9) / 10
        t0_out = t0_ref * rng.randint(11, 20) / 10
        args = (lam, mu, r, beta, n)

        def call(args=args, t0_in=t0_in, t0_out=t0_out):
            inside = nf.certify(t0_in, *args)
            traj = nf.lie_iterate_certified(inside, steps)
            rapid = pr.rapid_convergence_check([x for _, _, x in traj], rho=2)
            return (nf.threshold_T0(*args), inside.passes,
                    nf.certify(t0_out, *args).passes, traj, rapid)

        def check(out, args=args, t0_ref=t0_ref, t0_in=t0_in):
            t0, passes_in, passes_out, traj, (ok, c, rho) = out
            if not oracles.close(t0, t0_ref, 1e-12):
                return "T0 = %r, want %r" % (t0, t0_ref)
            if not passes_in or passes_out:
                return "certificate verdicts %s/%s, want True/False" % (passes_in, passes_out)
            want = oracles.certified_chain(t0_in, *args, steps)
            bad = _chain_check(traj, want)
            if bad:
                return bad
            if not ok or any(x > c ** (rho**i) * (1 + 1e-9) for i, (_, _, x) in enumerate(want)):
                return "no valid rapid-convergence witness: %s" % ((ok, c, rho),)
            return None
        jobs.append(Job("certificate", {"lambda": _p(lam), "mu": _p(mu), "r": _p(r),
                                        "beta": _p(beta), "n": n, "t0": t0_in},
                        check, call))
    return jobs


def _prisma_jobs(rng, ln):
    """The criterion-9 recipe on 48 configurations: 6 jobs, each one
    lambda in 1/4, 1/2, 3/4 and every pole-order pair (k, l) != (0, 0),
    with seeded R, t, s and x0 strictly inside the invariant set; 12
    steps, closed form at every n.  A job covers all (k, l), so its cost
    varies little with the seed."""
    pr = ln.prisma
    steps = 12
    jobs = []
    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)) * 2:
        configs = []
        for k, l in [(k, l) for k in range(3) for l in range(3) if k or l]:
            R = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            t = Fraction(rng.randint(9, 16), 8)
            s = t * (lam + (1 - lam) * Fraction(rng.randint(3, 9), 10))
            rho = 1 + lam - lam * t / s
            cap = R * rho**k * s**k * lam**l * (t - s) ** l
            configs.append((t, s, cap * Fraction(rng.randint(1, 9), 10), R, k, l, lam))

        def call(configs=configs):
            out = []
            for t, s, x0, R, k, l, lam in configs:
                cfg = pr.IterConfig(R=R, k=k, l=l, lam=lam)
                state = pr.PrismaState(t, s, x0)
                traj = pr.iterate(state, cfg, steps)
                out.append(([st.x for st in traj],
                            [pr.in_invariant_set(st, cfg) for st in traj],
                            [pr.closed_form_xn(i, state, cfg) for i in range(steps + 1)]))
            return out

        def check(out, configs=configs):
            for args, (xs, inside, closed) in zip(configs, out):
                want = oracles.prisma_xs(steps, *args)
                if xs != want:
                    return "iterate differs from the recurrence at %s" % (args,)
                if closed != want:
                    i = next(i for i, (a, b) in enumerate(zip(closed, want)) if a != b)
                    return "closed_form_xn(%d) differs from the recurrence at %s" % (i, args)
                if not all(inside):
                    return "trajectory leaves the invariant set at %s" % (args,)
            return None
        jobs.append(Job("prisma", {"lambda": _p(lam), "configs": [
            {"t": _p(t), "s": _p(s), "x": _p(x0), "R": _p(R), "k": k, "l": l}
            for t, s, x0, R, k, l, _ in configs]}, check, call))
    return jobs


def _norm_jobs(rng, ln):
    dn, ts = ln.disc_norms, ln.power_series.TruncSeries
    pairs = [(Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 2), Fraction(3, 4)),
             (Fraction(7, 10), Fraction(9, 10))]
    jobs = []
    for _ in range(10):
        cases = []
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for _ in range(rng.randint(1, 13))]
            s, t = rng.choice(pairs)
            cases.append((coeffs, rng.randint(0, 5), t, s))

        def call(cases=cases):
            out = []
            for coeffs, k, t, s in cases:
                f = ts(coeffs)
                m = dn.majorant_norm(f, t)
                out.append((dn.nagumo_check(f, k, t, s), m.exact, m.value))
            return out

        def check(out, cases=cases):
            for (coeffs, _k, t, _s), (holds, exact, value) in zip(cases, out):
                want = sum(abs(c) * t**i for i, c in enumerate(coeffs))
                if not holds:
                    return "Cauchy-Nagumo reported false for %s" % coeffs
                if exact != want or Fraction(value) < want:
                    return "majorant norm %s / %r, want %s" % (exact, value, want)
            return None
        jobs.append(Job("nagumo+majorant", {"cases": len(cases)}, check, call))

    grid = [(i / 50, j / 50) for i in range(1, 51) for j in range(1, 51) if i < j]
    for kind, want in (("geometric", True), ("constant", False)):
        def call(kind=kind):
            w = dn.WeightSequence(kind)
            return dn.lambda_p_check(w, w, 1, 1, 1, grid)
        jobs.append(Job("lambda_p_check", {"weights": kind},
                        lambda got, want=want: None if got is want
                        else "lambda_p_check = %s, want %s" % (got, want), call))
    return jobs


def _defset_jobs(rng, ln):
    ds = ln.defsets
    jobs = []
    for _ in range(12):
        a, b = Fraction(rng.randint(9, 16), 8), Fraction(rng.randint(9, 16), 8)
        k = 1 / (a * b)
        # A 24 x 24 grid shifted off the multiples of 1/24, which the
        # boundary s = k t passes through.  Points within 1e-9 of it, where
        # float rounding could make the library and the exact check
        # disagree, are left out; there are few, so every job checks
        # about the same number of points.
        pts = [((i + 1 / 2) / 24, (j + 1 / 3) / 24) for i in range(24) for j in range(24)]
        pts = [(t, s) for t, s in pts if abs(s - float(k) * t) > 1e-9]

        def call(a=a, b=b, pts=pts):
            left = ds.convolve(ds.DefSet.cone(a), ds.DefSet.cone(b))
            # only idempotent sets: a failing check stops at the first
            # point that differs, which would make the cost depend on a
            return (left.boundary.to_dict(),
                    [left.contains(t, s) for t, s in pts],
                    [ds.is_idempotent_on_grid(A, pts) for A in
                     (ds.DefSet.open_diagonal(), ds.DefSet.closed_subdiagonal())])

        def check(out, k=k, pts=pts):
            boundary, inside, idem = out
            if (boundary.get("op") != "linear" or Fraction(boundary["a"]) != k
                    or Fraction(boundary["c"]) != 0):
                return "cone convolution gave %s" % boundary
            if inside != [Fraction(s) < k * Fraction(t) for t, s in pts]:
                return "contains disagrees with s < t/(a b)"
            if idem != [True, True]:
                return "idempotence %s, want [True, True]" % idem
            return None
        jobs.append(Job("defsets", {"a": _p(a), "b": _p(b), "points": len(pts)}, check, call))
    return jobs


def _certified(rng, ln):
    """Six jobs, each one prisma group plus a round-robin share of the
    other parts.  Jobs of like make-up keep the median job close to a
    sixth of the batch.  A median over many short parts of one kind
    would follow that kind alone, and the speed of short interpreter-bound
    code swings most between runs."""
    slices = [[job] for job in _prisma_jobs(rng, ln)]
    rest = (_optimizer_jobs(ln) + _certificate_jobs(rng, ln) + _norm_jobs(rng, ln)
            + _defset_jobs(rng, ln))
    for i, part in enumerate(rest):
        slices[i % len(slices)].append(part)
    return [_bundle("certified", parts) for parts in slices]


# -- command line ------------------------------------------------------------

def _json_check(fn):
    def check(stdout):
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return "stdout is not JSON: %s" % exc
        return fn(doc)
    return check


def _cli_normalizer(n, beta, steps):
    psi_check = _normalizer_check(n, beta, steps)

    def check(doc):
        psi = doc["normalizer"]
        return psi_check((psi["trunc_order"], [Fraction(c) for c in psi["coeffs"]]))
    return check


def _cli(kind, argv, check, exit_code=0) -> Job:
    return Job(kind, {"argv": argv}, check, argv=argv, exit_code=exit_code)


def _cli_formal(rng):
    n, beta = rng.randint(3, 10), _rational(rng, 1, 9, sign=True)
    return [
        _cli("morse-trace", ["morse-trace", "--steps", "2"],
             _json_check(_cli_normalizer(3, Fraction(1), 2))),
        # "--beta=" (and "--coeffs=" below): a leading minus sign would
        # otherwise read as an option
        _cli("normalize", ["normalize", "--n", str(n), "--beta=" + _p(beta), "--steps", "2"],
             _json_check(_cli_normalizer(n, beta, 2))),
    ]


def _cli_certificate(rng):
    lam = Fraction(rng.randint(1, 7), 8)
    mu = lam + (1 - lam) * Fraction(rng.randint(1, 7), 8)
    r, beta, n = Fraction(rng.randint(1, 7), 8), _rational(rng, 1, 9), rng.randint(3, 10)
    t0_ref = oracles.threshold_T0(lam, mu, r, beta, n)
    cert = ["--lambda", _p(lam), "--mu", _p(mu), "--r", _p(r), "--beta", _p(beta),
            "--n", str(n)]
    t0_in = t0_ref * rng.randint(2, 9) / 10
    t0_out = t0_ref * rng.randint(11, 20) / 10

    def certify_in(doc):
        if doc["passes"] is not True:
            return "certificate fails inside the admissible range"
        want = oracles.certified_chain(t0_in, lam, mu, r, beta, n, 6)
        got = [(p["t"], p["s"], p["bound"]) for p in doc["trajectory"]]
        return _chain_check(got, want)

    def threshold(doc):
        t_inf = (float(mu) - float(lam)) / (1 - float(lam)) * t0_ref
        if not (oracles.close(doc["T0"], t0_ref, 1e-12)
                and oracles.close(doc["t_inf"], t_inf, 1e-12)):
            return "T0/t_inf = %r/%r, want %r/%r" % (doc["T0"], doc["t_inf"], t0_ref, t_inf)
        return None
    return [
        _cli("certify", ["certify", "--t0", repr(t0_in), "--steps", "6"] + cert,
             _json_check(certify_in)),
        _cli("certify", ["certify", "--t0", repr(t0_out)] + cert,
             _json_check(lambda doc: None if doc["passes"] is False
                         else "certificate passes outside the admissible range"), 1),
        _cli("threshold", ["threshold"] + cert, _json_check(threshold)),
    ]


def _cli_paramopt(rng):
    def basic(doc):
        if abs(8 * doc["mu"]**3 - 4 * doc["mu"]**2 - 7 * doc["mu"] + 4) >= oracles.BASIC_CUBIC_TOL:
            return "mu misses the cubic"
        return _off_reference(doc, oracles.BASIC)

    ns = sorted(rng.sample(sorted(oracles.Q_REFERENCE), 3))

    def qtable(doc):
        for row, n in zip(doc, ns):
            if row["n"] != n or abs(row["Q"] - oracles.Q_REFERENCE[n]) >= oracles.Q_TOL:
                return "Q row %s" % row
        return None if len(doc) == len(ns) else "%d Q rows" % len(doc)

    res = rng.randint(8, 16)

    def plot_grid(stdout):
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["lambda", "mu", "value"] or len(rows) != res * res + 1:
            return "plot-grid shape"
        cells = ((Fraction(i + 1, res + 1), Fraction(j + 1, res + 1))
                 for i in range(res) for j in range(res))
        for (lam, mu), (lam_s, mu_s, val_s) in zip(cells, rows[1:]):
            if float(lam_s) != float(lam) or float(mu_s) != float(mu):
                return "plot-grid point (%s, %s)" % (lam_s, mu_s)
            if lam >= mu:
                if val_s != "":
                    return "plot-grid value outside the triangle"
            elif not oracles.close(float(val_s), float(oracles.f_basic(
                    Fraction(float(lam)), Fraction(float(mu)))), 1e-12):
                return "plot-grid value at (%s, %s)" % (lam_s, mu_s)
        return None
    return [
        _cli("optimize", ["optimize", "--mode", "basic"], _json_check(basic)),
        _cli("optimize", ["optimize", "--mode", "equalized"],
             _json_check(lambda doc: _off_reference(doc, oracles.EQUALIZED))),
        _cli("qtable", ["qtable", "--n", ",".join(map(str, ns))], _json_check(qtable)),
        _cli("plot-grid", ["plot-grid", "--objective", "basic", "--resolution", str(res),
                           "--format", "csv"], plot_grid),
    ]


def _cli_prisma(rng, converges):
    """k=0, l=1 from t=1.  x0 inside the invariant set converges (exit 0);
    x0 >= 1 makes the rapid-convergence search fail (exit 1).  The
    divergent run stops at 4 steps: at 8 its exact x overflows the float
    conversion in the CLI's diagnostics, a crash rather than exit 1."""
    lam = Fraction(rng.randint(1, 3), 4)
    t = Fraction(1)
    s = t * (lam + (1 - lam) * Fraction(rng.randint(3, 9), 10))
    R = Fraction(rng.randint(1, 4))
    if converges:
        steps, x0 = 8, Fraction(rng.randint(1, 5), 10) * R * lam * (t - s)
    else:
        steps, x0 = 4, Fraction(rng.randint(10, 20), 10)

    def check(doc):
        want = oracles.prisma_xs(steps, t, s, x0, R, 0, 1, lam)
        if [Fraction(st["x"]) for st in doc["trajectory"]] != want:
            return "prisma trajectory differs from the recurrence"
        diag = doc["diagnostics"]
        if diag["rapidly_convergent"] is not converges:
            return "rapidly_convergent = %s" % diag["rapidly_convergent"]
        if converges and any(float(x) > diag["C"] ** (diag["rho"] ** i) * (1 + 1e-9)
                             for i, x in enumerate(want)):
            return "invalid witness %s" % diag
        return None
    return _cli("prisma", ["prisma", "--t", _p(t), "--s", _p(s), "--x", _p(x0), "--R", _p(R),
                           "--k", "0", "--l", "1", "--lambda", _p(lam), "--steps", str(steps)],
                _json_check(check), 0 if converges else 1)


def _cli_defsets(rng):
    a1, a2 = Fraction(rng.randint(1, 9), 8), Fraction(rng.randint(1, 9), 8)

    def linear(a):
        return json.dumps({"op": "linear", "a": _p(a), "c": 0})

    def convolved(doc):
        b = doc["boundary"]
        if b["op"] != "linear" or Fraction(b["a"]) != a1 * a2 or Fraction(b["c"]) != 0:
            return "convolution gave %s" % doc
        return None
    t, s = Fraction(rng.randint(1, 8), 8), Fraction(rng.randint(1, 8), 8)
    inside = s < a1 * t   # multiples of 1/64: the CLI's floats are exact here
    g = rng.randint(8, 16)
    return [
        _cli("defset", ["defset", "convolve", "--set", linear(a1), "--other", linear(a2)],
             _json_check(convolved)),
        _cli("defset", ["defset", "contains", "--set", linear(a1), "--t", _p(t), "--s", _p(s)],
             _json_check(lambda doc: None if doc["contains"] is inside
                         else "contains = %s, want %s" % (doc["contains"], inside))),
        _cli("defset", ["defset", "idempotent", "--set", "diagonal", "--grid", str(g)],
             _json_check(lambda doc: None if doc == {"idempotent_on_grid": True, "grid": g}
                         else "idempotent %s" % doc)),
    ]


def _cli_norms(rng):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 8))]
    x = Fraction(rng.randint(1, 9), 10)
    x_out = Fraction(rng.randint(10, 20), 10)
    g = rng.randint(6, 12)
    return [
        _cli("norms", ["norms", "nagumo", "--coeffs=" + ",".join(map(_p, coeffs)),
                       "--k", str(rng.randint(0, 4)), "--t", "1", "--s", "1/2"],
             _json_check(lambda doc: None if doc == {"nagumo_holds": True} else str(doc))),
        _cli("norms", ["norms", "borel", "--x", _p(x)],
             _json_check(lambda doc: None if oracles.close(doc["bound"], 1 / (1 - float(x)), 1e-15)
                         else "borel bound %r" % doc["bound"])),
        _cli("norms", ["norms", "borel", "--x", _p(x_out)],
             _json_check(lambda doc: None if "error" in doc else "no divergence reported"), 1),
        # every point of the CLI's g x g grid has 0 < s < t <= 1
        _cli("norms", ["norms", "lambda-p", "--grid", str(g)],
             _json_check(lambda doc: None if doc == {"lambda_p_holds": True, "points": g * g}
                         else str(doc))),
    ]


def _cli_invalid(rng):
    """A library ValueError and an argparse rejection: exit 2, no output."""
    def silent(stdout):
        return None if stdout == "" else "output on invalid input"
    return [
        _cli("invalid", ["normalize", "--n", "2", "--beta", _p(_rational(rng, 1, 9))], silent, 2),
        _cli("invalid", ["qtable", "--n", "3,x%d" % rng.randint(0, 9)], silent, 2),
    ]


def _cli_cold(rng):
    """20 subcommand invocations; exit codes 0, 1 and 2 each occur."""
    return (_cli_formal(rng) + _cli_certificate(rng) + _cli_paramopt(rng)
            + [_cli_prisma(rng, True), _cli_prisma(rng, False)]
            + _cli_defsets(rng) + _cli_norms(rng) + _cli_invalid(rng))


def build(workload: str, seed: int, lienorm=None) -> list[Job]:
    """The job batch of a workload; lienorm is the imported package
    (unused by cli_cold, whose jobs run in subprocesses)."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "cli_cold":
        return _cli_cold(rng)
    return {"formal_deep": _formal_deep, "certified": _certified}[workload](rng, lienorm)
