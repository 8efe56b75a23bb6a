"""Tests of the benchmark itself: its checks catch wrong output, its
inputs follow the seed, and its span arithmetic is right.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import spans
import workloads

lienorm = run.import_lienorm()


def _first(workload, kind, seed=1):
    return next(j for j in workloads.build(workload, seed, lienorm) if j.kind == kind)


def _small_deep_job():
    """formal_deep's kind of job at steps=2, quick enough for a test."""
    return workloads.deep_job(lienorm, Fraction(-2, 3), 2)


def test_corrupted_normalizer_coefficient_is_a_failure(monkeypatch):
    job = _small_deep_job()
    assert run.run_pass([job]).failures == []
    nf, ts = lienorm.normalform, lienorm.power_series.TruncSeries
    original = nf.normalizer_series

    def corrupted(trace):
        psi = original(trace)
        coeffs = list(psi.coeffs)
        coeffs[3] += Fraction(1, 10**9)
        return ts(coeffs, psi.trunc_order)
    monkeypatch.setattr(nf, "normalizer_series", corrupted)
    assert len(run.run_pass([job]).failures) == 1


def test_corrupted_prisma_value_is_a_failure(monkeypatch):
    job = _first("certified", "certified")   # every certified job has a prisma part
    assert run.run_pass([job]).failures == []
    pr = lienorm.prisma
    original = pr.closed_form_xn
    monkeypatch.setattr(pr, "closed_form_xn",
                        lambda n, state, cfg: original(n, state, cfg) * (1 + Fraction(1, 10**30))
                        if n == 7 else original(n, state, cfg))
    (failure,) = run.run_pass([job]).failures
    assert "closed_form_xn(7)" in failure[1]


def test_wrong_exit_code_is_a_failure():
    job = _first("cli_cold", "invalid")
    job.exit_code = 0
    (failure,) = run.run_pass([job]).failures
    assert "exit code 2" in failure[1]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_change_inputs_not_job_counts(workload):
    a = workloads.build(workload, 1, lienorm)
    b = workloads.build(workload, 2, lienorm)
    assert sorted(j.kind for j in a) == sorted(j.kind for j in b)
    assert [j.params for j in a] != [j.params for j in b]
    assert [j.params for j in a] == [j.params for j in workloads.build(workload, 1, lienorm)]


def test_self_time_on_a_hand_built_trace():
    #  root 0..10: a 1..4 (child 2..3), b 5..9 (children 5..6 and 5.5..7 overlap)
    trace = [(0, None, 1, "job", 0.0, 10.0),
             (1, 0, 1, "a", 1.0, 4.0), (2, 1, 1, "a.child", 2.0, 3.0),
             (3, 0, 1, "b", 5.0, 9.0), (4, 3, 1, "b.x", 5.0, 6.0), (5, 3, 1, "b.y", 5.5, 7.0)]
    selfs = spans.self_times(trace)
    assert selfs == {0: 3.0, 1: 2.0, 2: 1.0, 3: 2.0, 4: 1.0, 5: 1.5}
    # overlapping children: b's self time counts their union once, so
    # the sum over all spans exceeds the root only by the overlap
    assert sum(selfs.values()) == 10.0 + 0.5
    tracer = spans.Tracer()
    tracer.spans = trace[:3]
    assert spans.job_self_sums(tracer) == {1: (3.0, 10.0)}


def test_tail_percentile_keeps_ten_jobs_beyond():
    assert run.tail(list(range(19))) == (9, 50)
    assert run.tail(list(range(20))) == (9, 50)
    assert run.tail(list(range(1000))) == (989, 99)


def test_tracer_wraps_rebound_names_and_restores_them():
    nf, ps = lienorm.normalform, lienorm.power_series
    before = (nf.lie_exp, ps.lie_exp, ps.TruncSeries.__mul__, lienorm.paramopt.minimize)
    tracer = spans.Tracer()
    uninstall = spans.install(tracer, lienorm)
    try:
        assert nf.lie_exp is ps.lie_exp is not before[1]
        job = _small_deep_job()
        tracer.run_job(0, job.call)
    finally:
        uninstall()
    assert (nf.lie_exp, ps.lie_exp, ps.TruncSeries.__mul__,
            lienorm.paramopt.minimize) == before
    m = spans.layer_metrics(tracer)
    assert m["normalform.rounds"] == job.params["steps"] + 1
    assert m["power_series.lie_exp.calls"] == 2 * m["normalform.rounds"]
    assert m["power_series.mul.calls"] >= m["power_series.lie_exp.terms"] > 0
    assert 0 < m["power_series.lie_exp.useful_ratio"] < 1
    self_sum, job_time = spans.job_self_sums(tracer)[0]
    assert 0 < self_sum <= job_time


def test_check_mode_names_the_first_differing_count():
    first = {name: {"value": 1} for name, _ in spans.LAYER_METRICS}
    second = {name: {"value": 1} for name, _ in spans.LAYER_METRICS}
    second["prisma.closed_form_xn.self_s"]["value"] = 2   # a time, not a count
    assert run.first_count_difference(first, second) is None
    second["paramopt.objective.evals"]["value"] = 2
    second["cli.run.self_s"]["value"] = 2
    assert run.first_count_difference(first, second) == "paramopt.objective.evals"


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:       400 |        400 |     scipy._lib",
        "import time:        50 |        450 |   scipy.optimize",
        "import time:        10 |        760 | lienorm",
        "import time:        40 |         40 | lienorm.cli",
    ])
    assert run.parse_importtime(text) == {"cli.import_s": 800e-6,
                                          "cli.import.scipy_s": 450e-6,
                                          "cli.import.numpy_s": 300e-6}


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certified",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
