"""Benchmark for lienorm: end-to-end metrics, or per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...      every workload, one table
    python3 perfbench/run.py --workload NAME --check ...   counts repeat exactly?

Run it from anywhere; it uses the lienorm sources under src/ next to
this directory and exits with code 1, printing no result, when they
are missing.  Closed loop: one client, each job starts after the
previous one ended; cli_cold runs one subprocess at a time.

A run repeats the workload's job batch (a "pass") until the next pass
would overrun --seconds, and always finishes one pass.  Every output is
checked against oracles.py after its pass.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it alternates untraced
and traced passes and reports the per-layer metrics of the traced ones.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics.  See README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
CLI_CHILD = os.path.join(HERE, "cli_child.py")

SETUP_PROBES = 5   # timed fresh-interpreter set-ups per run; the median is reported
CLI_PROBES = 3     # interpreter and import probes per traced run

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
             "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str]):
    """Run argv to completion: (exit code, stdout, stderr, seconds, peak RSS in MB)."""
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 rather than Popen.wait: it also returns the child's own rusage
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = perf_counter() - start
    out, err = (b"".join(chunks[p]).decode() for p in (proc.stdout, proc.stderr))
    return proc.returncode, out, err, elapsed, usage.ru_maxrss / 1024


def import_lienorm():
    sys.path.insert(0, SRC)
    import lienorm
    return lienorm


# -- one pass of the job batch -------------------------------------------------

class Pass:
    def __init__(self):
        self.wall = 0.0
        self.times = []
        self.child_rss = []     # cli_cold: peak RSS of each job's process
        self.failures = []      # (job index, description)


def run_pass(jobs, tracer=None) -> Pass:
    """One pass over the jobs, then the checks.  With a tracer, each job
    runs inside a job span; cli jobs then run under cli_child.py."""
    p = Pass()
    outputs = []  # (ok, output or error text); dropped once checked
    start = perf_counter()
    for i, job in enumerate(jobs):
        if job.call is not None:
            fn = job.call
        else:
            cmd = ([sys.executable, CLI_CHILD] if tracer is not None
                   else [sys.executable, "-m", "lienorm.cli"]) + job.argv

            def fn(cmd=cmd, i=i):
                code, out, err, _, rss = run_child(cmd)
                p.child_rss.append(rss)
                if tracer is not None:
                    _, _, payload = err.rpartition(spans.SPANS_MARK)
                    tracer.ingest(i, *json.loads(payload))
                return code, out
        t0 = perf_counter()
        try:
            out = tracer.run_job(i, fn) if tracer is not None else fn()
            outputs.append((True, out))
        except Exception as exc:  # a failed job is counted, the run goes on
            outputs.append((False, "%s: %s" % (type(exc).__name__, exc)))
        p.times.append(perf_counter() - t0)
    p.wall = perf_counter() - start
    for i, (job, (ok, out)) in enumerate(zip(jobs, outputs)):
        if not ok:
            p.failures.append((i, out))
            continue
        if job.call is None:
            code, out = out
            if code != job.exit_code:
                p.failures.append((i, "exit code %d, want %d" % (code, job.exit_code)))
                continue
        try:
            problem = job.check(out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            problem = "malformed output: %r" % exc
        if problem:
            p.failures.append((i, problem))
    return p


def run_passes(seconds, one_pass) -> list[Pass]:
    """Passes until the next one would end after `seconds`; at least one."""
    start, passes, took = perf_counter(), [], []
    while True:
        t0 = perf_counter()
        passes.append(one_pass())
        took.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(took) > seconds:
            return passes


def tail(times):
    """(value, percentile): the highest whole percentile with at least ten
    jobs beyond it.  With fewer than 20 jobs no percentile has ten jobs
    beyond it; the median is reported, as percentile 50, which is where
    the rule lands at 20 jobs."""
    xs, n = sorted(times), len(times)
    if n < 20:
        return statistics.median(xs), 50
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], pct
    raise AssertionError("unreachable for n >= 20")


# -- the two kinds of run ----------------------------------------------------------

def end_to_end(args, jobs):
    probe = [sys.executable, SETUP_PROBE, "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for i in range(SETUP_PROBES + 1):
        code, _, err, seconds, _ = run_child(probe)
        if code != 0:
            raise SystemExit("set-up probe failed:\n" + err)
        if i:  # the first probe only fills the bytecode cache
            setups.append(seconds)
    passes = run_passes(args.seconds, lambda: run_pass(jobs))
    times = [t for p in passes for t in p.times]
    tail_s, tail_pct = tail(times)
    if args.workload == "cli_cold":
        rss = max(r for p in passes for r in p.child_rss)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(p.wall for p in passes),
               "job_p50_s": statistics.median(times),
               "job_tail_s": tail_s,
               "peak_rss_mb": rss}
    meta = {"tail_percentile": tail_pct,
            "setup_s_all": setups}
    return passes, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, meta


def cli_probes():
    """Median interpreter start-up and lienorm.cli import times, in s."""
    interp, imports = [], []
    for _ in range(CLI_PROBES):
        interp.append(run_child([sys.executable, "-c", "pass"])[3])
        code, _, err, _, _ = run_child([sys.executable, "-X", "importtime",
                                        "-c", "import lienorm.cli"])
        if code != 0:
            raise SystemExit("import probe failed:\n" + err)
        imports.append(parse_importtime(err))
    out = {"cli.interp_s": statistics.median(interp)}
    for key in ("cli.import_s", "cli.import.scipy_s", "cli.import.numpy_s"):
        out[key] = statistics.median(i[key] for i in imports)
    return out


def parse_importtime(stderr: str) -> dict:
    """Total lienorm.cli import time and the self time of scipy / numpy modules."""
    total = scipy = numpy = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        top, name = not name.startswith("  "), name.strip()
        if top and (name == "lienorm" or name.startswith("lienorm.")):
            total += int(cum_us)
        root = name.split(".")[0]
        scipy += int(self_us) if root == "scipy" else 0
        numpy += int(self_us) if root == "numpy" else 0
    return {"cli.import_s": total / 1e6, "cli.import.scipy_s": scipy / 1e6,
            "cli.import.numpy_s": numpy / 1e6}


def traced(args, jobs, lienorm):
    cli = args.workload == "cli_cold"
    tracer = spans.Tracer()
    layers, untraced, walls = [], [], []
    first_spans = None

    def pair():
        plain = run_pass(jobs)
        untraced.append(plain.wall)
        tracer.reset()
        uninstall = None if cli else spans.install(tracer, lienorm)
        try:
            p = run_pass(jobs, tracer)
        finally:
            if uninstall:
                uninstall()
        walls.append(p.wall)
        for job, (self_sum, job_time) in spans.job_self_sums(tracer).items():
            if self_sum > job_time:
                raise SystemExit("job %s: self times sum to %.6f s > traced job time %.6f s"
                                 % (job, self_sum, job_time))
        layers.append(spans.layer_metrics(tracer))
        nonlocal first_spans
        if first_spans is None:
            first_spans = list(tracer.spans)
        p.failures += plain.failures
        return p

    passes = run_passes(args.seconds, pair)
    units = dict(spans.LAYER_METRICS)
    metrics = {}
    for name, unit in spans.LAYER_METRICS:
        if name not in layers[0]:
            continue
        values = [m[name] for m in layers]
        if unit in spans.COUNT_UNITS:
            if len(set(values)) != 1:
                raise SystemExit("count %s differs between traced passes: %s" % (name, values))
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics.update(cli_probes())
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    with open(path, "w") as fh:
        for sp in first_spans:
            fh.write(json.dumps(sp) + "\n")
    meta = {"trace_overhead_s": statistics.median(walls) - statistics.median(untraced),
            "untraced_wall_s": statistics.median(untraced),
            "traced_wall_s": statistics.median(walls),
            "spans_file": os.path.relpath(path, ROOT)}
    return passes, {k: (metrics[k], units[k]) for k, _ in spans.LAYER_METRICS}, meta


# -- output ------------------------------------------------------------------------

def single(args) -> int:
    import workloads

    lienorm = import_lienorm()
    jobs = workloads.build(args.workload, args.seed, lienorm)
    if args.trace:
        passes, metrics, extra = traced(args, jobs, lienorm)
    else:
        passes, metrics, extra = end_to_end(args, jobs)
    attempted = len(jobs) * len(passes) * (2 if args.trace else 1)
    failures = [f for p in passes for f in p.failures]
    kinds = dict(Counter(job.kind for job in jobs))
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "jobs_per_pass": len(jobs), "job_kinds": kinds,
            "passes": len(passes), "attempted": attempted, "failed": len(failures),
            **extra}
    print("%s seed %d: %d jobs per pass x %d passes%s, %d failed" % (
        args.workload, args.seed, len(jobs), len(passes),
        " (each untraced + traced)" if args.trace else "", len(failures)))
    for i, problem in failures[:5]:
        print("  FAIL job %d (%s %s): %s" % (i, jobs[i].kind, json.dumps(jobs[i].params),
                                              problem), file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("  %-42s %14.6g %s" % (name, value, unit))
    print("  %-42s %14.6g %s" % ("fail_ratio", len(failures) / attempted, "1"))
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def child_result(args, workload):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out, err, _, _ = run_child(cmd)
    sys.stderr.write(err)
    lines = out.splitlines()
    if code != 0 or not lines:
        raise SystemExit("%s run failed with exit code %d" % (workload, code))
    meta = next(json.loads(l[5:]) for l in lines if l.startswith("meta "))
    return out, meta, json.loads(lines[-1])


def all_workloads(args) -> int:
    """Each workload in its own process (so peak RSS is its own), one table."""
    import workloads

    record = {}
    for w in workloads.WORKLOADS:
        out, meta, result = child_result(args, w)
        print("\n".join(out.splitlines()[:-2]))
        record[w] = {"meta": meta, **result}
    print(json.dumps(record))
    return 0 if all(r["correct"] for r in record.values()) else 1


def first_count_difference(first: dict, second: dict) -> str | None:
    """Name of the first count metric whose values differ in two results."""
    return next((n for n, unit in spans.LAYER_METRICS if unit in spans.COUNT_UNITS
                 and first[n]["value"] != second[n]["value"]), None)


def check_counts(args) -> int:
    """Run the traced workload twice; every count metric must repeat exactly."""
    import workloads

    args.trace = 1
    todo = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for w in todo:
        first, second = (child_result(args, w)[2]["metrics"] for _ in range(2))
        diff = first_count_difference(first, second)
        if diff is None:
            print("%s: every count metric repeats exactly" % w)
        else:
            print("%s: %s differs: %s then %s" % (w, diff, first[diff]["value"],
                                                  second[diff]["value"]))
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["formal_deep", "certified", "cli_cold", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check", action="store_true",
                        help="run the traced workload twice and compare every count")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lienorm", "__init__.py")):
        print("perfbench: no lienorm sources at %s" % SRC, file=sys.stderr)
        return 1
    if args.check:
        return check_counts(args)
    if args.workload == "all":
        return all_workloads(args)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
