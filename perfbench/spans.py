"""In-memory span tracer that instruments lienorm from outside.

install() replaces public callables of the library by wrappers, under
every name a module binds them to (normalform re-binds lie_exp and
j_map, paramopt binds scipy's minimize), and returns a function that
puts the originals back.  A wrapper records a span (id, parent, job,
name, start, end) or just bumps a counter.  Spans stay in memory; the
caller writes them out when the run ends.

The per-layer metrics are computed from one traced batch: ``calls`` is
the number of spans of a name, ``self_s`` the spans' duration minus the
part of it their child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter
from typing import Callable

MODULES = ("power_series", "disc_norms", "defsets", "prisma",
           "normalform", "paramopt", "cli")

# (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    *[("power_series.%s.%s" % (op, kind), unit)
      for op in ("mul", "compose", "lie_exp")
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    ("power_series.lie_exp.terms", "count"),
    ("power_series.lie_exp.useful_ratio", "1"),
    ("power_series.coeff_bits_max", "bits"),
    ("power_series.trunc_order_max", "count"),
    ("normalform.lie_iterate_formal.self_s", "s"),
    ("normalform.normalizer_series.self_s", "s"),
    ("normalform.rounds", "count"),
    *[("normalform.%s.%s" % (op, kind), unit)
      for op in ("certify", "threshold_T0", "lie_iterate_certified")
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    *[("prisma.%s.%s" % (op, kind), unit)
      for op in ("closed_form_xn", "step", "in_invariant_set")
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    ("prisma.rapid_convergence_check.self_s", "s"),
    ("prisma.x_bits_max", "bits"),
    *[("disc_norms.%s.%s" % (op, kind), unit)
      for op in ("nagumo_check", "majorant_norm")
      for kind, unit in (("calls", "count"), ("self_s", "s"))],
    ("disc_norms.lambda_p_check.self_s", "s"),
    ("defsets.convolve.self_s", "s"),
    ("defsets.contains.self_s", "s"),
    ("defsets.is_idempotent_on_grid.self_s", "s"),
    ("defsets.contains.calls", "count"),
    ("paramopt.maximize.self_s", "s"),
    ("paramopt.q_table.self_s", "s"),
    ("paramopt.nelder_mead.self_s", "s"),
    ("paramopt.objective.evals", "count"),
    ("paramopt.iterations", "count"),
    ("cli.interp_s", "s"),
    ("cli.import_s", "s"),
    ("cli.import.scipy_s", "s"),
    ("cli.import.numpy_s", "s"),
    ("cli.run.self_s", "s"),
]

# Prefix of the stderr line on which a traced CLI child reports its spans.
SPANS_MARK = "perfbench-spans "

# Metrics that must repeat exactly between runs of the same inputs.
COUNT_UNITS = ("count", "bits")


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self):
        self.spans = []            # (sid, parent, job, name, start, end)
        self.counts = Counter()
        self.maxes = Counter()
        self.job = None
        self._next = 0             # next span id
        self._stack = []           # (sid, parent, start) of open spans
        self._lie_exp_orders = []  # orders of apply_derivation outputs per open lie_exp

    def reset(self):
        self.__init__()

    def open(self):
        sid = self._next
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, parent, perf_counter()))

    def close(self, name):
        sid, parent, start = self._stack.pop()
        self.spans.append((sid, parent, self.job, name, start, perf_counter()))

    def run_job(self, job_id, fn):
        """fn() inside a root span named "job"; spans opened by fn carry job_id."""
        self.job = job_id
        self.open()
        try:
            return fn()
        finally:
            self.close("job")
            self.job = None

    def ingest(self, job_id, spans, counts, maxes):
        """Adopt spans recorded by another process as spans of job_id.

        Their clock is not ours, so they keep their own parents and no
        span of this process becomes their parent.
        """
        base = self._next
        for sid, parent, name, start, end in spans:
            self.spans.append((base + sid, None if parent is None else base + parent,
                               job_id, name, start, end))
            self._next = max(self._next, base + sid + 1)
        self.counts.update(counts)
        for k, v in maxes.items():
            self.maxes[k] = max(self.maxes[k], v)

    def export(self):
        """(spans, counts, maxes) as plain JSON data; spans without the job."""
        spans = [(sid, parent, name, start, end)
                 for sid, parent, _job, name, start, end in self.spans]
        return spans, dict(self.counts), dict(self.maxes)

    # -- wrappers ---------------------------------------------------------

    def spanned(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(name)
            if after is not None:
                after(out)
            return out
        return wrapper

    def counted(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out
        return wrapper

    def note_series(self, out):
        self.maxes["power_series.trunc_order_max"] = max(
            self.maxes["power_series.trunc_order_max"], out.trunc_order)
        bits = max(map(_bits, out.coeffs), default=0)
        self.maxes["power_series.coeff_bits_max"] = max(
            self.maxes["power_series.coeff_bits_max"], bits)

    def note_x(self, x):
        self.maxes["prisma.x_bits_max"] = max(self.maxes["prisma.x_bits_max"], _bits(x))

    def lie_exp_wrapper(self, fn):
        """Span plus the useful-term count: a computed term is useful when
        it starts inside the truncation window of the returned series."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._lie_exp_orders.append([])
            tracer.open()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close("power_series.lie_exp")
                orders = tracer._lie_exp_orders.pop()
            tracer.counts["power_series.lie_exp.useful_terms"] += sum(
                o <= out.trunc_order for o in orders)
            tracer.note_series(out)
            return out
        return wrapper

    def apply_derivation_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracer.counts["power_series.lie_exp.terms"] += 1
            if tracer._lie_exp_orders:
                tracer._lie_exp_orders[-1].append(out.order)
            return out
        return wrapper


def _rebind(lienorm, original, replacement, undo):
    """Point every module-level name bound to original at replacement."""
    for mod in [lienorm] + [getattr(lienorm, m) for m in MODULES]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacement)


def install(tracer: Tracer, lienorm) -> Callable[[], None]:
    """Instrument the imported lienorm package; returns the undo function.

    Names a later version of the library no longer has are skipped, so
    their metrics read 0 instead of breaking the benchmark.
    """
    import importlib

    for m in MODULES:
        importlib.import_module("lienorm." + m)
    ps, nf, pr = lienorm.power_series, lienorm.normalform, lienorm.prisma
    dn, ds, po = lienorm.disc_norms, lienorm.defsets, lienorm.paramopt
    undo = []

    def method(cls, attr, name, after=None, attrs=None):
        fn = cls.__dict__.get(attr)
        if fn is None:
            return
        wrapped = tracer.spanned(name, fn, after)
        for a in attrs or (attr,):
            if cls.__dict__.get(a) is fn:
                undo.append((cls, a, fn))
                setattr(cls, a, wrapped)

    def function(mod, attr, wrap):
        fn = getattr(mod, attr, None)
        if fn is not None:
            _rebind(lienorm, fn, wrap(fn), undo)

    def span(name, after=None):
        return lambda fn: tracer.spanned(name, fn, after)

    def count(name, after=None):
        return lambda fn: tracer.counted(name, fn, after)

    def add_iterations(n):
        tracer.counts["paramopt.iterations"] += n

    series = tracer.note_series
    ts = ps.TruncSeries
    method(ts, "__mul__", "power_series.mul", series, ("__mul__", "__rmul__"))
    method(ts, "compose", "power_series.compose", series)
    function(ps, "lie_exp", tracer.lie_exp_wrapper)
    function(ps, "apply_derivation", tracer.apply_derivation_wrapper)

    function(nf, "lie_iterate_formal", span(
        "normalform.lie_iterate_formal",
        lambda out: tracer.counts.update({"normalform.rounds": len(out)})))
    for op in ("normalizer_series", "certify", "threshold_T0", "lie_iterate_certified"):
        function(nf, op, span("normalform." + op))

    function(pr, "closed_form_xn", span("prisma.closed_form_xn", tracer.note_x))
    function(pr, "step", span("prisma.step", lambda out: tracer.note_x(out.x)))
    for op in ("in_invariant_set", "rapid_convergence_check"):
        function(pr, op, span("prisma." + op))

    for op in ("nagumo_check", "majorant_norm", "lambda_p_check"):
        function(dn, op, span("disc_norms." + op))

    function(ds, "convolve", span("defsets.convolve"))
    # The module-level contains/is_idempotent_on_grid delegate to these.
    method(ds.DefSet, "contains", "defsets.contains")
    method(ds.DefSet, "is_idempotent_on_grid", "defsets.is_idempotent_on_grid")

    for op in ("maximize_basic", "maximize_equalized"):
        function(po, op, span("paramopt.maximize"))
    function(po, "q_table", span("paramopt.q_table"))
    function(po, "minimize", span("paramopt.nelder_mead",
                                  lambda res: add_iterations(int(res.nit))))
    # Newton refinement steps; private, so absent after a refactor.
    function(po, "_newton_polish", count("paramopt.newton",
                                         lambda out: add_iterations(int(out[2]))))
    for op in ("F_basic", "equalized_objective", "q_value"):
        function(po, op, count("paramopt.objective.evals"))

    function(lienorm.cli, "run", span("cli.run"))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
    return uninstall


def self_times(spans) -> dict:
    """sid -> span duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for sid, parent, _job, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _job, _name, start, end in spans:
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (end - start) - covered
    return out


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced batch (cli probes are added by the caller)."""
    selfs = self_times(tracer.spans)
    calls, self_s = Counter(), defaultdict(float)
    for sid, _parent, _job, name, _start, _end in tracer.spans:
        calls[name] += 1
        self_s[name] += selfs[sid]
    terms = tracer.counts["power_series.lie_exp.terms"]
    derived = {
        "power_series.lie_exp.useful_ratio":
            tracer.counts["power_series.lie_exp.useful_terms"] / terms if terms else 0.0,
    }
    out = {}
    for metric, _unit in LAYER_METRICS:
        if metric in derived:
            out[metric] = derived[metric]
        elif metric in tracer.maxes:
            out[metric] = tracer.maxes[metric]
        elif metric.endswith(".calls"):
            out[metric] = calls[metric[:-len(".calls")]]
        elif metric.endswith(".self_s"):
            out[metric] = self_s[metric[:-len(".self_s")]]
        elif metric.startswith("cli."):
            continue
        else:
            out[metric] = tracer.counts[metric]
    return out


def job_self_sums(tracer: Tracer) -> dict:
    """job -> (sum of self times of its layer spans, traced job time).

    Layer spans of a job nest inside its root span, so the sum can never
    exceed the root's duration; run.py asserts that.
    """
    selfs = self_times(tracer.spans)
    sums, roots = defaultdict(float), {}
    for sid, _parent, job, name, start, end in tracer.spans:
        if name == "job":
            roots[job] = end - start
        elif job is not None:
            sums[job] += selfs[sid]
    return {job: (sums[job], roots[job]) for job in roots}
