"""Command-line front end.

One subcommand per procedure cluster: traces, certificates, thresholds,
optimization, the Q table, prisma trajectories, definition-set algebra,
norm checks, and plot-grid dumps.  Exact fractions are accepted on the
command line as "p/q" strings and emitted as the same strings in JSON;
output is deterministic (identical invocations give identical bytes)
unless --stamp adds run metadata outside the data body.

Exit codes: 0 success, 1 failed certificate or divergent bound (the
document is still emitted with failure detail), 2 invalid input or an
--out path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from . import defsets, disc_norms, normalform, paramopt, prisma
from .power_series import TruncSeries


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not an exact number: %r (%s)" % (text, exc))


def _int_list(text: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(document, args, table=None) -> str:
    """Render the document as JSON, or its table (header row first) as
    CSV; only subcommands that return a table accept --format csv."""
    if args.format == "json":
        if args.stamp:
            document = {"data": document, "stamp": {"tool": "lienorm"}}
        return json.dumps(document, indent=2, sort_keys=True) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    if args.stamp:
        buf.write("# stamp: lienorm\n")
    return buf.getvalue()


def _write(text: str, args) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p, csv_ok=True):
    formats = ["json", "csv"] if csv_ok else ["json"]
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--stamp", action="store_true",
                   help="attach run metadata outside the data body")


# Size budget of the formal trace: each step doubles the truncation order
# 2^(steps+1) + 4, and the exact work grows faster than the order.
MAX_STEPS = 7
MAX_ORDER = normalform.default_trunc_order(MAX_STEPS)


def _cmd_normalize(args):
    if args.steps > MAX_STEPS:
        raise ValueError("--steps %d is over the budget of %d (the truncation "
                         "order 2^(steps+1)+4 doubles with each step)"
                         % (args.steps, MAX_STEPS))
    if args.order is not None and args.order > MAX_ORDER:
        raise ValueError("--order %d is over the budget of %d"
                         % (args.order, MAX_ORDER))
    order = args.order if args.order is not None else normalform.default_trunc_order(args.steps)
    if args.n > order:
        raise ValueError("perturbation exponent %d exceeds order %d" % (args.n, order))
    a = normalform.quadratic_normal_form(order)
    b0 = TruncSeries.monomial(args.n, order, args.beta)
    trace = normalform.lie_iterate_formal(a, b0, args.steps)
    doc = trace.to_dict()
    doc["normalizer"] = normalform.normalizer_series(trace).to_dict()
    return doc, 0


def _cmd_certify(args):
    cert = normalform.certify(args.t0, args.lam, args.mu, args.r,
                              args.beta, args.n)
    doc = cert.to_dict()
    code = 0 if cert.passes else 1
    if args.steps and cert.passes:
        try:
            traj = normalform.lie_iterate_certified(cert, args.steps)
            doc["trajectory"] = [
                {"t": t, "s": s, "bound": x} for t, s, x in traj
            ]
        except normalform.CertificateBreachError as exc:
            doc["breach"] = {"step": exc.step, "detail": str(exc)}
            code = 1
    return doc, code


def _cmd_threshold(args):
    t0 = normalform.threshold_T0(args.lam, args.mu, args.r, args.beta, args.n)
    lam, mu = float(args.lam), float(args.mu)
    doc = {"T0": t0, "t_inf": normalform.t_inf(lam, mu, t0),
           "lambda": lam, "mu": mu,
           "r": float(args.r), "beta": float(args.beta), "n": args.n}
    return doc, 0


def _cmd_optimize(args):
    if args.mode == "basic":
        res = paramopt.maximize_basic()
    else:
        res = paramopt.maximize_equalized()
    return res.to_dict(), 0


def _cmd_qtable(args):
    rows = paramopt.q_table(args.n)
    table = [["n", "lambda", "mu", "Q", "true_radius", "t_inf"]] + [
        [r.n, repr(r.lam), repr(r.mu), "%.3f" % r.Q,
         repr(r.true_radius), repr(r.certified_t_inf)]
        for r in rows
    ]
    return [r.to_dict() for r in rows], 0, table


def _cmd_prisma(args):
    state = prisma.PrismaState(args.t, args.s, args.x, args.alpha)
    cfg = prisma.IterConfig(R=args.R, k=args.k, l=args.l, lam=args.lam)
    # x_n has about 2^n times x_0's digits: stop at the first step str() refuses
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = 10**limit if limit else float("inf")
    traj = [state]
    for n in range(1, args.steps + 1):
        traj.append(prisma.step(traj[-1], cfg))
        if any(max(abs(v.numerator), v.denominator) >= too_long
               for v in vars(traj[-1]).values() if v is not None):
            raise ValueError("step %d has a value of more than %d digits, past Python's "
                             "int-to-str limit (sys.get_int_max_str_digits())" % (n, limit))
    doc = [st.to_dict() for st in traj]
    ok, c_wit, rho_wit = prisma.rapid_convergence_check([st.x for st in traj])
    meta = {"rapidly_convergent": ok}
    if ok:
        meta.update({"C": c_wit, "rho": rho_wit})
    return {"trajectory": doc, "diagnostics": meta}, 0 if ok else 1


def _parse_boundary(text: str) -> defsets.DefSet:
    if text == "closed-diagonal":
        return defsets.DefSet.closed_subdiagonal()
    if text == "diagonal":
        return defsets.DefSet.open_diagonal()
    return defsets.DefSet(defsets.boundary_from_dict(json.loads(text)))


def _cmd_defset(args):
    A = _parse_boundary(args.set)
    if args.action == "contains":
        if args.t is None or args.s is None:
            raise ValueError("contains needs --t and --s")
        ok = A.contains(float(args.t), float(args.s))
        return {"contains": ok, "t": float(args.t), "s": float(args.s)}, 0
    if args.action == "convolve":
        if args.other is None:
            raise ValueError("convolve needs --other")
        B = _parse_boundary(args.other)
        return defsets.convolve(A, B).to_dict(), 0
    # idempotent check on a uniform grid
    n = args.grid
    pts = [((i + 1) / n, (j + 1) / n)
           for i in range(n) for j in range(n)]
    ok = A.is_idempotent_on_grid(pts)
    return {"idempotent_on_grid": ok, "grid": n}, 0


def _cmd_norms(args):
    if args.check == "nagumo":
        coeffs = [Fraction(c) for c in args.coeffs.split(",")]
        f = TruncSeries(coeffs)
        ok = disc_norms.nagumo_check(f, args.k, args.t, args.s)
        return {"nagumo_holds": ok}, 0
    if args.check == "borel":
        try:
            val = disc_norms.geometric_borel_bound(float(args.x))
        except disc_norms.DivergenceError as exc:
            return {"error": str(exc), "x": float(args.x)}, 1
        return {"bound": val, "x": float(args.x)}, 0
    # lambda-p on geometric weights over a uniform grid
    lam = disc_norms.WeightSequence("geometric")
    mu = disc_norms.WeightSequence("geometric", a=args.mu_power)
    n = args.grid
    grid = [((i + 1) / (n + 1) * (j + 2) / (n + 2), (j + 2) / (n + 2))
            for i in range(n) for j in range(n)]
    grid = [(s, t) for s, t in grid if 0 < s < t <= 1]
    ok = disc_norms.lambda_p_check(lam, mu, args.p, args.alpha, args.C, grid)
    return {"lambda_p_holds": ok, "points": len(grid)}, 0


def _cmd_plot_grid(args):
    if args.resolution < 2:
        raise ValueError("resolution must be >= 2")
    f = paramopt.F_basic if args.objective == "basic" else paramopt.equalized_objective
    table = [["lambda", "mu", "value"]]
    values = []
    for i in range(args.resolution):
        lam = (i + 1) / (args.resolution + 1)
        for j in range(args.resolution):
            mu = (j + 1) / (args.resolution + 1)
            if 0 < lam < mu < 1:
                val = f(lam, mu)
                table.append([repr(lam), repr(mu), repr(val)])
                values.append({"lambda": lam, "mu": mu, "value": val})
            else:
                table.append([repr(lam), repr(mu), ""])
                values.append({"lambda": lam, "mu": mu, "value": None})
    return values, 0, table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lienorm",
        description="Lie-iteration normal forms with certified convergence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("morse-trace", help="exact trace for z^2/2 + z^3")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--order", type=int, default=None,
                   help="truncation order (default 2^(steps+1)+4)")
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_normalize, n=3, beta=Fraction(1))

    p = sub.add_parser("normalize", help="exact trace for z^2/2 + beta z^n")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--beta", type=_fraction, default=Fraction(1))
    p.add_argument("--steps", type=int, default=3)
    p.add_argument("--order", type=int, default=None)
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("certify", help="evaluate the convergence certificate")
    p.add_argument("--t0", type=_fraction, required=True)
    p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1, 4))
    p.add_argument("--mu", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--r", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--beta", type=_fraction, default=Fraction(1))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--steps", type=int, default=0,
                   help="also emit the certified bound trajectory")
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("threshold", help="largest admissible t0")
    p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1, 4))
    p.add_argument("--mu", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--r", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--beta", type=_fraction, default=Fraction(1))
    p.add_argument("--n", type=int, default=3)
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("optimize", help="maximize the certified radius")
    p.add_argument("--mode", choices=["basic", "equalized"], default="equalized")
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("qtable", help="certified-vs-true radius ratios")
    p.add_argument("--n", type=_int_list, default=[3, 4, 5, 6, 7, 8, 9, 10, 20, 50])
    _add_common(p)
    p.set_defaults(func=_cmd_qtable)

    p = sub.add_parser("prisma", help="iterate the norm dynamics")
    p.add_argument("--t", type=_fraction, required=True)
    p.add_argument("--s", type=_fraction, required=True)
    p.add_argument("--x", type=_fraction, required=True)
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--R", type=_fraction, default=Fraction(1))
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--steps", type=int, default=8)
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_prisma)

    p = sub.add_parser("defset", help="definition-set algebra")
    p.add_argument("action", choices=["contains", "convolve", "idempotent"])
    p.add_argument("--set", required=True,
                   help='boundary JSON, or "diagonal"/"closed-diagonal"')
    p.add_argument("--other", default=None, help="second set for convolve")
    p.add_argument("--t", type=_fraction, default=None)
    p.add_argument("--s", type=_fraction, default=None)
    p.add_argument("--grid", type=int, default=32)
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_defset)

    p = sub.add_parser("norms", help="norm inequality checks")
    p.add_argument("check", choices=["nagumo", "borel", "lambda-p"])
    p.add_argument("--coeffs", default="0,0,1",
                   help="comma-separated exact coefficients (nagumo)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--t", type=_fraction, default=Fraction(1))
    p.add_argument("--s", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--x", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--mu-power", type=int, default=1)
    p.add_argument("--grid", type=int, default=10)
    _add_common(p, csv_ok=False)
    p.set_defaults(func=_cmd_norms)

    p = sub.add_parser("plot-grid", help="objective values for contouring")
    p.add_argument("--objective", choices=["basic", "equalized"], default="basic")
    p.add_argument("--resolution", type=int, default=50)
    _add_common(p)
    p.set_defaults(func=_cmd_plot_grid)

    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Write "--opt -1/2" as "--opt=-1/2".

    argparse reads a token that starts with "-" and is no plain number,
    such as -1/2 or -1,0,1, as an option, so a negative fraction or list
    would need the "=" form."""
    out = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and re.match(r"-\d", tok):
            out[-1] = prev + "=" + tok
        else:
            out.append(tok)
    return out


def run(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; normalize other parser exits
        return int(exc.code) if exc.code is not None else 2
    try:
        # a subcommand returns (document, exit code), plus its CSV table
        doc, code, *table = args.func(args)
        _write(_emit(doc, args, *table), args)
        return code
    except normalform.DivergenceError as exc:
        print("divergence: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
