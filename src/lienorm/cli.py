"""Command-line front end.

One subcommand per procedure cluster: traces, certificates, thresholds,
optimization, the Q table, prisma trajectories, definition-set algebra,
norm checks, and plot-grid dumps.  Exact fractions are accepted on the
command line as "p/q" strings and emitted as the same strings in JSON;
output is deterministic (identical invocations give identical bytes)
unless --stamp adds run metadata outside the data body.  Each subcommand
imports the library modules it uses when it runs, so a start loads no
others.  Each definition-set action and each norm check is a command of
its own ("norms borel"), and every command takes only the options it
reads: any other option exits 2 with usage.  Each count option declares
its range on the option (_count), so a count out of range exits 2 with
usage before anything is built.

Exit codes: 0 success, 1 failed certificate or divergent bound (the
document is still emitted with failure detail), 2 invalid input, such
as a value past the float range, a document with a non-finite float,
which JSON cannot carry, or an --out path that cannot be written.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys
from fractions import Fraction


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("not an exact number: %r (%s)" % (text, exc))


def _float_fraction(text: str) -> Fraction:
    """An exact number the command also reads as a float."""
    value = _fraction(text)
    try:
        as_float = float(value)
    except OverflowError:
        raise argparse.ArgumentTypeError("past the float range: %r" % text)
    if value and not as_float:
        raise argparse.ArgumentTypeError("below the float range: %r" % text)
    return value


def _count(lo: int, hi: int | None = None):
    """An argparse type: an int from lo to hi (no cap when hi is None).
    The returned callable carries lo and hi."""
    def count(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError("%d is below %d" % (value, lo))
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError("%d is over the budget of %d" % (value, hi))
        return value
    # argparse names the type in its message "invalid int value: 'x'"
    count.__name__, count.lo, count.hi = "int", lo, hi
    return count


def _fraction_list(text: str) -> list[Fraction]:
    # no empty entry is skipped: a coefficient's position is its power
    return [_fraction(p) for p in text.split(",")]


def _int_list(text: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",") if p]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if not values:
        raise argparse.ArgumentTypeError("empty list: %r" % text)
    return values


def _require_finite(value, path="") -> None:
    """Raise ValueError naming the JSON path of the first float, in output
    order, that JSON cannot carry (an infinity or a NaN)."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("%s is %r, which JSON cannot carry"
                         % (path or "the document", value))
    if isinstance(value, dict):
        for key, v in sorted(value.items()):
            _require_finite(v, "%s.%s" % (path, key) if path else str(key))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _require_finite(v, "%s.%d" % (path, i) if path else str(i))


def _emit(document, args, table=None) -> str:
    """Render the document as strict JSON, or its table (header row first)
    as CSV; only subcommands that return a table accept --format csv."""
    if args.format == "json":
        if args.stamp:
            document = {"data": document, "stamp": {"tool": "lienorm"}}
        _require_finite(document)
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
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


@contextlib.contextmanager
def _command(sub, name, func, csv_ok=False, **kw):
    """Add command name running func; the with block's options precede the output ones."""
    p = sub.add_parser(name, **kw)
    yield p
    p.add_argument("--format", choices=["json", "csv"] if csv_ok else ["json"],
                   default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--stamp", action="store_true",
                   help="attach run metadata outside the data body")
    p.set_defaults(func=func)


# Size budgets of the counts, which each count option declares through _count
MAX_STEPS = 7  # each formal step doubles the truncation order 2^(steps+1) + 4
MAX_ORDER = 260  # the default order at MAX_STEPS
MAX_GRID = 500  # the side n of a grid: all n^2 points are built at once
MAX_CHAIN_STEPS = 2000  # certify and prisma print every step of their chains
MAX_POLE = 1000  # prisma computes s^k and (t-s)^l before its first step


def _cmd_normalize(args):
    from . import normalform
    from .power_series import TruncSeries

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
    from . import normalform

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
    from . import normalform

    t0 = normalform.threshold_T0(args.lam, args.mu, args.r, args.beta, args.n)
    lam, mu = float(args.lam), float(args.mu)
    doc = {"T0": t0, "t_inf": normalform.t_inf(lam, mu, t0),
           "lambda": lam, "mu": mu,
           "r": float(args.r), "beta": float(args.beta), "n": args.n}
    return doc, 0


def _cmd_optimize(args):
    from . import paramopt

    if args.mode == "basic":
        res = paramopt.maximize_basic()
    else:
        res = paramopt.maximize_equalized()
    return res.to_dict(), 0


def _cmd_qtable(args):
    from . import paramopt

    rows = paramopt.q_table(args.n)
    table = [["n", "lambda", "mu", "Q", "true_radius", "t_inf"]] + [
        [r.n, repr(r.lam), repr(r.mu), "%.3f" % r.Q,
         repr(r.true_radius), repr(r.certified_t_inf)]
        for r in rows
    ]
    return [r.to_dict() for r in rows], 0, table


def _cmd_prisma(args):
    from . import prisma

    state = prisma.PrismaState(args.t, args.s, args.x, args.alpha)
    cfg = prisma.IterConfig(R=args.R, k=args.k, l=args.l, lam=args.lam)
    # x_n has about 2^n times x_0's digits: stop at the first step str() refuses
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = 10**limit if limit else float("inf")
    traj = [state]
    for n in range(1, args.steps + 1):
        state = prisma.step(state, cfg)
        traj.append(state)
        if any(max(abs(v.numerator), v.denominator) >= too_long
               for v in (state.t, state.s, state.x, state.alpha) if v is not None):
            raise ValueError("step %d has a value of more than %d digits, past Python's "
                             "int-to-str limit (sys.get_int_max_str_digits())" % (n, limit))
    doc = [st.to_dict() for st in traj]
    ok, c_wit, rho_wit = prisma.rapid_convergence_check([st.x for st in traj])
    meta = {"rapidly_convergent": ok}
    if ok:
        meta.update({"C": c_wit, "rho": rho_wit})
    return {"trajectory": doc, "diagnostics": meta}, 0 if ok else 1


def _parse_boundary(text: str) -> defsets.DefSet:
    from . import defsets

    if text == "closed-diagonal":
        return defsets.DefSet.closed_subdiagonal()
    if text == "diagonal":
        return defsets.DefSet.open_diagonal()
    return defsets.DefSet(defsets.boundary_from_dict(json.loads(text)))


def _cmd_contains(args):
    ok = _parse_boundary(args.set).contains(args.t, args.s)
    return {"contains": ok, "t": float(args.t), "s": float(args.s)}, 0


def _cmd_convolve(args):
    from . import defsets

    A, B = _parse_boundary(args.set), _parse_boundary(args.other)
    return defsets.convolve(A, B).to_dict(), 0


def _cmd_idempotent(args):
    A = _parse_boundary(args.set)
    n = args.grid
    pts = [((i + 1) / n, (j + 1) / n) for i in range(n) for j in range(n)]
    return {"idempotent_on_grid": A.is_idempotent_on_grid(pts), "grid": n}, 0


def _cmd_nagumo(args):
    from . import disc_norms
    from .power_series import TruncSeries

    ok = disc_norms.nagumo_check(TruncSeries(args.coeffs), args.k, args.t, args.s)
    return {"nagumo_holds": ok}, 0


def _cmd_borel(args):
    from . import disc_norms

    try:
        val = disc_norms.geometric_borel_bound(args.x)
    except disc_norms.DivergenceError as exc:
        return {"error": str(exc), "x": float(args.x)}, 1
    except OverflowError:
        raise ValueError("the bound 1/(1-x) is past the float range")
    return {"bound": val, "x": float(args.x)}, 0


def _cmd_lambda_p(args):
    from . import disc_norms

    # geometric weights over a uniform grid
    n = args.grid
    w = disc_norms.WeightSequence("geometric")
    grid = [((i + 1) / (n + 1) * (j + 2) / (n + 2), (j + 2) / (n + 2))
            for i in range(n) for j in range(n)]
    ok = disc_norms.lambda_p_check(w, w, 1.0, 1.0, 1.0, grid)
    return {"lambda_p_holds": ok, "points": len(grid)}, 0


def _cmd_plot_grid(args):
    from . import paramopt

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
    with _command(sub, "morse-trace", _cmd_normalize,
                  help="exact trace for z^2/2 + z^3") as p:
        p.add_argument("--steps", type=_count(0, MAX_STEPS), default=4)
        p.add_argument("--order", type=_count(0, MAX_ORDER), default=None,
                       help="truncation order (default 2^(steps+1)+4)")
        p.set_defaults(n=3, beta=Fraction(1))
    with _command(sub, "normalize", _cmd_normalize,
                  help="exact trace for z^2/2 + beta z^n") as p:
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--beta", type=_fraction, default=Fraction(1))
        p.add_argument("--steps", type=_count(0, MAX_STEPS), default=3)
        p.add_argument("--order", type=_count(0, MAX_ORDER), default=None)
    with _command(sub, "certify", _cmd_certify,
                  help="evaluate the convergence certificate") as p:
        p.add_argument("--t0", type=_float_fraction, required=True)
        p.add_argument("--lambda", dest="lam", type=_float_fraction, default=Fraction(1, 4))
        p.add_argument("--mu", type=_float_fraction, default=Fraction(1, 2))
        p.add_argument("--r", type=_float_fraction, default=Fraction(1, 2))
        p.add_argument("--beta", type=_float_fraction, default=Fraction(1))
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--steps", type=_count(0, MAX_CHAIN_STEPS), default=0,
                       help="also emit the certified bound trajectory")
    with _command(sub, "threshold", _cmd_threshold, help="largest admissible t0") as p:
        p.add_argument("--lambda", dest="lam", type=_float_fraction, default=Fraction(1, 4))
        p.add_argument("--mu", type=_float_fraction, default=Fraction(1, 2))
        p.add_argument("--r", type=_float_fraction, default=Fraction(1, 2))
        p.add_argument("--beta", type=_float_fraction, default=Fraction(1))
        p.add_argument("--n", type=int, default=3)
    with _command(sub, "optimize", _cmd_optimize,
                  help="maximize the certified radius") as p:
        p.add_argument("--mode", choices=["basic", "equalized"], default="equalized")
    with _command(sub, "qtable", _cmd_qtable, csv_ok=True,
                  help="certified-vs-true radius ratios") as p:
        p.add_argument("--n", type=_int_list, default=[3, 4, 5, 6, 7, 8, 9, 10, 20, 50])
    with _command(sub, "prisma", _cmd_prisma, help="iterate the norm dynamics") as p:
        p.add_argument("--t", type=_fraction, required=True)
        p.add_argument("--s", type=_fraction, required=True)
        p.add_argument("--x", type=_fraction, required=True)
        p.add_argument("--alpha", type=_fraction, default=None)
        p.add_argument("--R", type=_fraction, default=Fraction(1))
        p.add_argument("--k", type=_count(0, MAX_POLE), default=0)
        p.add_argument("--l", type=_count(0, MAX_POLE), default=1)
        p.add_argument("--lambda", dest="lam", type=_fraction, default=Fraction(1, 2))
        p.add_argument("--steps", type=_count(0, MAX_CHAIN_STEPS), default=8)

    actions = sub.add_parser("defset", help="definition-set algebra").add_subparsers(
        dest="action", required=True)
    boundary = 'boundary JSON, or "diagonal"/"closed-diagonal"'
    with _command(actions, "contains", _cmd_contains, help="is (t, s) in the set") as p:
        p.add_argument("--set", required=True, help=boundary)
        p.add_argument("--t", type=_float_fraction, required=True)
        p.add_argument("--s", type=_float_fraction, required=True)
    with _command(actions, "convolve", _cmd_convolve, help="convolve with --other") as p:
        p.add_argument("--set", required=True, help=boundary)
        p.add_argument("--other", required=True, help=boundary)
    with _command(actions, "idempotent", _cmd_idempotent, help="A * A = A on a grid") as p:
        p.add_argument("--set", required=True, help=boundary)
        p.add_argument("--grid", type=_count(1, MAX_GRID), default=32)
    checks = sub.add_parser("norms", help="norm inequality checks").add_subparsers(
        dest="check", required=True)
    with _command(checks, "nagumo", _cmd_nagumo, help="Cauchy-Nagumo estimate") as p:
        p.add_argument("--coeffs", type=_fraction_list, default="0,0,1",
                       help="comma-separated exact coefficients")
        p.add_argument("--k", type=_count(0), default=1)
        p.add_argument("--t", type=_fraction, default=Fraction(1))
        p.add_argument("--s", type=_fraction, default=Fraction(1, 2))
    with _command(checks, "borel", _cmd_borel, help="geometric Borel bound 1/(1-x)") as p:
        p.add_argument("--x", type=_float_fraction, default=Fraction(1, 2))
    with _command(checks, "lambda-p", _cmd_lambda_p, help="lambda-p on a grid") as p:
        p.add_argument("--grid", type=_count(1, MAX_GRID), default=10)

    with _command(sub, "plot-grid", _cmd_plot_grid, csv_ok=True,
                  help="objective values for contouring") as p:
        p.add_argument("--objective", choices=["basic", "equalized"], default="basic")
        p.add_argument("--resolution", type=_count(2, MAX_GRID), default=50)

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
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
