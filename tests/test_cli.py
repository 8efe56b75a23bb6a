import argparse
import csv
import importlib
import io
import json
import math
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from lienorm import cli, normalform
from lienorm.cli import run


def run_capture(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _no_constant(name):
    raise ValueError("%s is not JSON" % name)


def strict_json(text):
    """json.loads that rejects the Infinity, -Infinity and NaN extensions."""
    return json.loads(text, parse_constant=_no_constant)


class TestMorseTrace:
    def test_f4_coefficient_in_json(self, capsys):
        code, out, _ = run_capture(
            capsys, "morse-trace", "--steps", "4", "--order", "18",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        f4 = doc["rounds"][4]["f"]
        assert f4["coeffs"][18] == "-295245/16"
        assert f4["coeffs"][2] == "1/2"

    def test_normalizer_included(self, capsys):
        code, out, _ = run_capture(capsys, "morse-trace", "--steps", "3",
                                   "--order", "8")
        doc = json.loads(out)
        psi = doc["normalizer"]["coeffs"]
        assert psi[1] == "1/1" and psi[2] == "-1/1" and psi[3] == "5/2"

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_capture(capsys, "morse-trace", "--steps", "2")
        _, out2, _ = run_capture(capsys, "morse-trace", "--steps", "2")
        assert out1 == out2

    def test_stamp_outside_data(self, capsys):
        _, plain, _ = run_capture(capsys, "morse-trace", "--steps", "1")
        _, stamped, _ = run_capture(capsys, "morse-trace", "--steps", "1",
                                    "--stamp")
        doc = json.loads(stamped)
        assert doc["data"] == json.loads(plain)
        assert "stamp" in doc

    def test_same_output_as_normalize_cubic(self, capsys):
        _, morse, _ = run_capture(capsys, "morse-trace", "--steps", "3",
                                  "--order", "8")
        _, normalize, _ = run_capture(capsys, "normalize", "--n", "3",
                                      "--beta", "1", "--steps", "3",
                                      "--order", "8")
        assert morse == normalize


class TestNormalize:
    def test_round_trip_series(self, capsys):
        code, out, _ = run_capture(
            capsys, "normalize", "--n", "4", "--beta", "1/2", "--steps", "2",
            "--order", "12",
        )
        assert code == 0
        doc = json.loads(out)
        b0 = doc["rounds"][0]["b"]
        assert b0["coeffs"][4] == "1/2"
        from lienorm.power_series import TruncSeries
        series = TruncSeries(b0["coeffs"], b0["trunc_order"])
        assert series.to_dict() == b0

    def test_negative_beta_in_every_spelling(self, capsys):
        outs = set()
        for beta in (["--beta", "-1/2"], ["--beta=-1/2"], ["--beta", "-0.5"]):
            code, out, err = run_capture(capsys, "normalize", "--n", "4", *beta,
                                         "--steps", "2")
            assert (code, err) == (0, "")
            outs.add(out)
        (out,) = outs
        assert json.loads(out)["rounds"][0]["b"]["coeffs"][4] == "-1/2"


class TestCertify:
    def test_passing_certificate(self, capsys):
        code, out, _ = run_capture(capsys, "certify", "--t0", "0.004")
        assert code == 0
        doc = json.loads(out)
        assert doc["passes"] is True
        assert doc["conditions"]["ii"]["holds"] is True

    def test_failing_certificate_exits_one_with_document(self, capsys):
        code, out, _ = run_capture(capsys, "certify", "--t0", "0.0044")
        assert code == 1
        doc = json.loads(out)
        assert doc["passes"] is False
        assert doc["conditions"]["ii"]["holds"] is False

    def test_certificate_and_chain_agree_near_the_threshold(self, capsys):
        # condition ii and the chain's step 0 are one test: a certificate
        # that passes cannot breach at step 0
        code, out, _ = run_capture(
            capsys, "certify", "--t0", "0.00018759442856750846", "--lambda", "7/8",
            "--mu", "57/64", "--r", "3/4", "--beta", "9/4", "--n", "3", "--steps", "2")
        doc = json.loads(out)
        assert code == 1 and doc["passes"] is False and "breach" not in doc
        assert doc["conditions"]["ii"]["holds"] is False
        assert doc["conditions"]["ii"]["margin"] < 0

    def test_last_returned_state_is_the_last_one_computed(self, capsys):
        # the float chain of t0 = 1/250 collapses onto t = s at state 27:
        # 27 states pass, and asking for state 27 is an error
        code, out, err = run_capture(capsys, "certify", "--t0", "1/250", "--steps", "26")
        assert (code, err) == (0, "")
        assert len(strict_json(out)["trajectory"]) == 27
        code, out, err = run_capture(capsys, "certify", "--t0", "1/250", "--steps", "27")
        assert (code, out) == (2, "")
        assert err == ("error: prisma needs t > s > 0, got t=0.0013333333333333335"
                       " s=0.0013333333333333335\n")

    def test_trajectory_attached(self, capsys):
        code, out, _ = run_capture(capsys, "certify", "--t0", "0.004",
                                   "--steps", "5")
        doc = json.loads(out)
        assert len(doc["trajectory"]) == 6
        bounds = [row["bound"] for row in doc["trajectory"]]
        assert bounds == sorted(bounds, reverse=True)


class TestThreshold:
    def test_reference_values(self, capsys):
        code, out, _ = run_capture(capsys, "threshold")
        assert code == 0
        doc = json.loads(out)
        assert doc["T0"] == pytest.approx(0.00431108720123, abs=1e-11)
        assert doc["t_inf"] == pytest.approx(0.001437029067, abs=1e-11)


class TestOptimize:
    def test_equalized_document(self, capsys):
        code, out, _ = run_capture(capsys, "optimize", "--mode", "equalized")
        assert code == 0
        doc = json.loads(out)
        assert doc["lambda"] == pytest.approx(0.4145717, abs=1e-6)
        assert doc["mu"] == pytest.approx(0.6054472, abs=1e-6)
        assert doc["e_t_inf"] == pytest.approx(0.0188344, abs=1e-6)

    def test_basic_document(self, capsys):
        _, out, _ = run_capture(capsys, "optimize", "--mode", "basic")
        doc = json.loads(out)
        assert doc["lambda"] == pytest.approx(0.448612476, abs=1e-6)


class TestQTable:
    def test_csv_rows(self, capsys):
        code, out, _ = run_capture(capsys, "qtable", "--n", "3,10,50",
                                   "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "lambda", "mu", "Q", "true_radius", "t_inf"]
        q = {int(r[0]): float(r[3]) for r in rows[1:]}
        assert q[3] == pytest.approx(27.775, abs=0.005)
        assert q[10] == pytest.approx(1.584, abs=0.005)
        assert q[50] == pytest.approx(1.099, abs=0.005)

    def test_json_round_trip(self, capsys):
        _, out, _ = run_capture(capsys, "qtable", "--n", "3")
        doc = json.loads(out)
        assert doc[0]["n"] == 3

    def test_csv_stamp_is_the_last_line(self, capsys):
        code, out, err = run_capture(capsys, "qtable", "--n", "3", "--format", "csv",
                                     "--stamp")
        _, plain, _ = run_capture(capsys, "qtable", "--n", "3", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == plain + "# stamp: lienorm\n"


class TestPrisma:
    def test_exact_fraction_trajectory(self, capsys):
        code, out, _ = run_capture(
            capsys, "prisma", "--t", "1", "--s", "3/4", "--x", "1/16",
            "--R", "1", "--k", "0", "--l", "1", "--lambda", "1/2",
            "--steps", "4",
        )
        assert code == 0
        doc = json.loads(out)
        traj = doc["trajectory"]
        assert traj[1] == {"t": "3/4", "s": "5/8", "x": "1/64"}
        assert traj[2]["x"] == "1/512"
        assert doc["diagnostics"]["rapidly_convergent"] is True

    def test_short_trajectory_witness_bounds_every_point(self, capsys):
        code, out, _ = run_capture(
            capsys, "prisma", "--t", "1", "--s", "3/4", "--x", "1/4",
            "--R", "1", "--k", "0", "--l", "1", "--lambda", "1/2",
            "--steps", "2",
        )
        assert code == 0
        doc = json.loads(out)
        assert [st["x"] for st in doc["trajectory"]] == ["1/4", "1/4", "1/2"]
        diag = doc["diagnostics"]
        assert diag["rho"] == 2.0
        assert diag["C"] == pytest.approx(2**-0.25, rel=1e-15)

    def test_parametric_flag(self, capsys):
        _, out, _ = run_capture(
            capsys, "prisma", "--t", "1", "--s", "3/4", "--x", "1/16",
            "--alpha", "0", "--steps", "3",
        )
        doc = json.loads(out)
        assert doc["trajectory"][1]["alpha"] == "1/16"

    def test_trajectory_beyond_float_range_exits_one(self, capsys):
        # x_8 has about 1100 bits, past the largest float
        code, out, err = run_capture(
            capsys, "prisma", "--t", "1", "--s", "17/20", "--x", "3/2",
            "--R", "1", "--k", "0", "--l", "1", "--lambda", "1/2",
        )
        assert code == 1
        assert err == ""
        doc = json.loads(out)
        assert len(doc["trajectory"]) == 9
        assert doc["diagnostics"] == {"rapidly_convergent": False}

    def test_stops_at_the_first_unprintable_step(self, capsys):
        # x_14 has about 65000 bits, past Python's 4300-digit str limit
        code, out, err = run_capture(
            capsys, "prisma", "--t", "1", "--s", "3/4", "--x", "1/16",
            "--steps", "14",
        )
        assert code == 2
        assert out == ""
        assert err == ("error: step 14 has a value of more than 4300 digits, past "
                       "Python's int-to-str limit (sys.get_int_max_str_digits())\n")

    @pytest.mark.parametrize("steps", ["50", "1100"])
    def test_constant_trajectory_exits_one(self, capsys, steps):
        # x stays 1/2, which no C < 1 bounds: 50 steps printed the witness
        # C 0.9999999999999993, and 1100 steps overflowed 2.0^n
        code, out, err = run_capture(
            capsys, "prisma", "--t", "1", "--s", "3/4", "--x", "1/2",
            "--R", "1/2", "--k", "0", "--l", "0", "--lambda", "1/2",
            "--steps", steps,
        )
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert len(doc["trajectory"]) == int(steps) + 1
        assert doc["diagnostics"] == {"rapidly_convergent": False}

    def test_zero_trajectory_prints_every_step(self, capsys):
        code, out, _ = run_capture(capsys, "prisma", "--t", "1", "--s", "3/4",
                                   "--x", "0", "--steps", "40")
        assert code == 0
        traj = json.loads(out)["trajectory"]
        assert len(traj) == 41 and {st["x"] for st in traj} == {"0/1"}


class TestDefset:
    CONE = json.dumps({"op": "linear", "a": "1/2", "c": 0})

    def test_contains(self, capsys):
        code, out, _ = run_capture(
            capsys, "defset", "contains", "--set", self.CONE,
            "--t", "1", "--s", "2/5",
        )
        assert code == 0
        assert json.loads(out)["contains"] is True

    def test_convolve_symbolic(self, capsys):
        other = json.dumps({"op": "linear", "a": "1/3", "c": 0})
        _, out, _ = run_capture(
            capsys, "defset", "convolve", "--set", self.CONE, "--other", other,
        )
        doc = json.loads(out)
        assert doc["boundary"] == {"op": "linear", "a": "1/6", "c": "0/1"}

    def test_idempotent_diagonal(self, capsys):
        code, out, _ = run_capture(capsys, "defset", "idempotent",
                                   "--set", "diagonal", "--grid", "12")
        assert json.loads(out)["idempotent_on_grid"] is True

    def test_invalid_json_is_exit_two(self, capsys):
        code, _, err = run_capture(capsys, "defset", "contains",
                                   "--set", "{broken", "--t", "1", "--s", "1/2")
        assert code == 2

    @pytest.mark.parametrize("s, inside", [("1/25", False), ("49/1250", True)])
    def test_contains_decides_on_the_exact_point(self, capsys, s, inside):
        # (1/5, 1/25) lies on the boundary of {s < t/5}; in floats the
        # boundary value 0.2 * 0.2 rounds above 0.04
        cone = json.dumps({"op": "linear", "a": "1/5", "c": 0})
        code, out, _ = run_capture(capsys, "defset", "contains", "--set", cone,
                                   "--t", "1/5", "--s", s)
        assert code == 0
        assert json.loads(out) == {"contains": inside, "t": 0.2, "s": float(F(s))}


class TestNorms:
    def test_nagumo(self, capsys):
        code, out, _ = run_capture(
            capsys, "norms", "nagumo", "--coeffs", "0,0,1", "--k", "1",
            "--t", "1", "--s", "1/2",
        )
        assert code == 0
        assert json.loads(out)["nagumo_holds"] is True

    def test_negative_coefficient_list(self, capsys):
        spaced = run_capture(capsys, "norms", "nagumo", "--coeffs", "-1,0,1", "--s", "1/4")
        joined = run_capture(capsys, "norms", "nagumo", "--coeffs=-1,0,1", "--s", "1/4")
        assert spaced == joined
        assert spaced[0] == 0 and "nagumo_holds" in json.loads(spaced[1])

    def test_borel_divergence_is_exit_one(self, capsys):
        code, out, _ = run_capture(capsys, "norms", "borel", "--x", "1")
        assert code == 1

    def test_borel_value(self, capsys):
        code, out, _ = run_capture(capsys, "norms", "borel", "--x", "1/2")
        assert json.loads(out)["bound"] == pytest.approx(2.0)

    def test_lambda_p(self, capsys):
        code, out, _ = run_capture(capsys, "norms", "lambda-p", "--grid", "8")
        assert json.loads(out)["lambda_p_holds"] is True


class TestPlotGrid:
    def test_masks_outside_triangle(self, capsys):
        code, out, _ = run_capture(capsys, "plot-grid", "--resolution", "3",
                                   "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda", "mu", "value"]
        body = rows[1:]
        assert len(body) == 9
        masked = [r for r in body if r[2] == ""]
        assert len(masked) == 6  # lam >= mu on a 3x3 uniform grid

    def test_value_matches_objective(self, capsys):
        _, out, _ = run_capture(capsys, "plot-grid", "--resolution", "3",
                                "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        vals = {(float(r[0]), float(r[1])): r[2] for r in rows[1:]}
        got = float(vals[(0.25, 0.5)])
        assert got == pytest.approx(1 / 256)

    def test_grid_maximum_near_optimizer(self, capsys):
        _, out, _ = run_capture(capsys, "plot-grid", "--resolution", "200",
                                "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        best = max(float(r[2]) for r in rows[1:] if r[2])
        from lienorm.paramopt import maximize_basic
        assert best == pytest.approx(maximize_basic().objective, abs=1e-3)


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run(["morse-trace", "--bogus"]) == 2

    # a value below the range would be read as 0.0
    @pytest.mark.parametrize("argv, flag, side", [
        (["certify", "--t0", "1e400"], "--t0", "past"),
        (["certify", "--t0", "1/250", "--lambda", "-1e400"], "--lambda", "past"),
        (["threshold", "--beta", "1e400"], "--beta", "past"),
        (["norms", "borel", "--x", "1e400"], "--x", "past"),
        (["defset", "contains", "--set", "diagonal", "--t", "1e400", "--s", "1/2"], "--t",
         "past"),
        (["certify", "--t0", "1e-400"], "--t0", "below"),
        (["defset", "contains", "--set", "diagonal", "--t", "1e-400", "--s", "1e-401"], "--t",
         "below"),
    ], ids=["certify-t0", "certify-negative-lambda", "threshold-beta", "borel-x",
            "defset-t", "certify-t0-below", "defset-t-below"])
    def test_value_past_the_float_range_names_the_option(self, capsys, argv, flag, side):
        value = argv[argv.index(flag) + 1]
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage:")
        assert err.endswith("error: argument %s: %s the float range: %r\n"
                            % (flag, side, value))

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_negative_value_after_a_flag_is_still_an_error(self, capsys):
        code, out, err = run_capture(capsys, "normalize", "--stamp", "-1")
        assert (code, out) == (2, "")
        assert "--stamp" in err

    # only values just past each cap: a case at the cap runs for seconds
    @pytest.mark.parametrize("command", ["normalize", "morse-trace"])
    @pytest.mark.parametrize("flag, value", [("--steps", "8"), ("--order", "261")])
    def test_formal_size_budget_is_exit_two(self, capsys, monkeypatch,
                                            command, flag, value):
        def no_series(*args):
            raise AssertionError("series built")
        monkeypatch.setattr(normalform, "quadratic_normal_form", no_series)
        code, out, err = run_capture(capsys, command, flag, value)
        assert (code, out) == (2, "")
        cap = {"--steps": cli.MAX_STEPS, "--order": cli.MAX_ORDER}[flag]
        assert err.startswith("usage: lienorm %s " % command)
        assert err.endswith("\nlienorm %s: error: argument %s: %s is over the budget of %d\n"
                            % (command, flag, value, cap))

    def test_order_budget_is_the_default_order_at_the_step_budget(self):
        assert cli.MAX_ORDER == normalform.default_trunc_order(cli.MAX_STEPS)

    # a grid with no point and a negative step count check nothing
    @pytest.mark.parametrize("argv", [
        ["defset", "idempotent", "--set", "diagonal", "--grid", "0"],
        ["defset", "idempotent", "--set", "diagonal", "--grid", "-3"],
        ["norms", "lambda-p", "--grid", "0"],
        ["prisma", "--t", "1/2", "--s", "1/4", "--x", "1/8", "--steps", "-2"],
        ["morse-trace", "--steps", "-1"],
        ["morse-trace", "--steps", "-2"],
        ["normalize", "--steps", "-1"],
        ["normalize", "--steps", "-2"],
    ])
    def test_empty_check_is_exit_two(self, capsys, argv):
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        command = " ".join(argv[:2] if argv[0] in ("defset", "norms") else argv[:1])
        flag, value = argv[-2:]
        assert err.startswith("usage: lienorm %s " % command)
        assert err.endswith("\nlienorm %s: error: argument %s: %s is below %d\n"
                            % (command, flag, value, {"--grid": 1, "--steps": 0}[flag]))

    # only values just past each cap, monkeypatched so that nothing is
    # built: a run at the --steps cap prints thousands of steps
    @pytest.mark.parametrize("argv, builder, message", [
        (["certify", "--t0", "1/250", "--steps", "2001"], "normalform.certify",
         "lienorm certify: error: argument --steps: 2001 is over the budget of 2000"),
        # a failing certificate ignored the negative count and exited 1
        (["certify", "--t0", "1/200", "--steps", "-1"], "normalform.certify",
         "lienorm certify: error: argument --steps: -1 is below 0"),
        (["prisma", "--t", "1", "--s", "3/4", "--x", "0", "--steps", "2001"],
         "prisma.PrismaState",
         "lienorm prisma: error: argument --steps: 2001 is over the budget of 2000"),
        (["prisma", "--t", "1", "--s", "3/4", "--x", "1/16", "--k", "1001"],
         "prisma.IterConfig", "lienorm prisma: error: argument --k: 1001 is over the budget of 1000"),
        (["prisma", "--t", "1", "--s", "3/4", "--x", "1/16", "--l", "1001"],
         "prisma.IterConfig", "lienorm prisma: error: argument --l: 1001 is over the budget of 1000"),
        (["norms", "nagumo", "--k", "-1"], "disc_norms.nagumo_check",
         "lienorm norms nagumo: error: argument --k: -1 is below 0"),
    ], ids=["certify-steps-over-budget", "certify-negative-steps",
            "prisma-steps-over-budget", "prisma-k-over-budget", "prisma-l-over-budget",
            "nagumo-negative-k"])
    def test_count_out_of_range_builds_nothing(self, capsys, monkeypatch, argv, builder,
                                               message):
        def no_build(*args, **kw):
            raise AssertionError("%s built" % builder)
        module, name = builder.split(".")
        monkeypatch.setattr(importlib.import_module("lienorm." + module), name, no_build)
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: lienorm ") and err.endswith("\n%s\n" % message)

    @pytest.mark.parametrize("argv, message", [
        # argparse names a missing option after its usage line
        (["defset", "contains", "--set", "diagonal", "--s", "1/2"],
         "lienorm defset contains: error: the following arguments are required: --t"),
        (["defset", "convolve", "--set", "diagonal"],
         "lienorm defset convolve: error: the following arguments are required: --other"),
        (["plot-grid", "--resolution", "1"],
         "lienorm plot-grid: error: argument --resolution: 1 is below 2"),
        (["normalize", "--n", "9", "--order", "8"],
         "perturbation exponent 9 exceeds order 8"),
        # a negative exponent raised IndexError
        (["normalize", "--n", "-1"], "monomial degree must be >= 0"),
        # x < 1, but 1/(1 - x) = 10^400
        (["norms", "borel", "--x", "0." + "9" * 400],
         "the bound 1/(1-x) is past the float range"),
        # only values just past the cap: a grid at the cap runs for seconds
        (["defset", "idempotent", "--set", "diagonal", "--grid", "501"],
         "lienorm defset idempotent: error: argument --grid: 501 is over the budget of 500"),
        (["norms", "lambda-p", "--grid", "501"],
         "lienorm norms lambda-p: error: argument --grid: 501 is over the budget of 500"),
        (["plot-grid", "--resolution", "501"],
         "lienorm plot-grid: error: argument --resolution: 501 is over the budget of 500"),
        # t0 is a float, but R = 2(1-r)^2/t0^2 is not: t0**2 underflows to
        # 0.0 (1e-200, 1e-320) or R overflows (1e-160, 5e-155)
        (["certify", "--t0", "1e-200"],
         "t0 = 1e-200 is out of range: R = 2(1-r)^2/t0^2 is inf in floats"),
        (["certify", "--t0", "1e-320"],
         "t0 = 1e-320 is out of range: R = 2(1-r)^2/t0^2 is inf in floats"),
        (["certify", "--t0", "1e-160"],
         "t0 = 1e-160 is out of range: R = 2(1-r)^2/t0^2 is inf in floats"),
        (["certify", "--t0", "5e-155"],
         "t0 = 5e-155 is out of range: R = 2(1-r)^2/t0^2 is inf in floats"),
        # C = t0^2/(2(1-r)^2) overflows; t0**2 itself overflows and reads as inf
        (["certify", "--t0", "1e154"],
         "t0 = 1e+154 is out of range: C = t0^2/(2(1-r)^2) is inf in floats"),
        (["certify", "--t0", "1e200"],
         "t0 = 1e+200 is out of range: R = 2(1-r)^2/t0^2 is 0.0 in floats"),
        # mu^(n-1) underflows to 0.0
        (["certify", "--t0", "0.004", "--mu", "1e-200", "--lambda", "1e-201"],
         "mu = 1e-200, t0 = 0.004 are out of range: the margin scale mu^(n-1)*t0 "
         "is 0.0 in floats"),
        (["threshold", "--mu", "1e-200", "--lambda", "1e-201"],
         "T0 has no float value: mu^(n-1) rounds to 0.0 in floats"),
        # T0 is positive in exact terms, but its float is 0.0
        (["threshold", "--lambda", "1e-300"], "T0 rounds to 0.0 in floats"),
        # a margin that is no finite float, which JSON cannot carry
        (["certify", "--t0", "0.004", "--mu", "1e-160", "--lambda", "1e-161"],
         "conditions.i.margin is inf, which JSON cannot carry"),
        (["certify", "--t0", "1/3", "--lambda", "1e-160", "--beta", "1e308"],
         "conditions.i.margin is -inf, which JSON cannot carry"),
        (["certify", "--t0", "7", "--mu", "1e-160", "--r", "2/3"],
         "conditions.i.margin is inf, which JSON cannot carry"),
        (["certify", "--t0", "1", "--mu", "1e-160", "--r", "1e-160", "--steps", "30"],
         "conditions.ii.margin is -inf, which JSON cannot carry"),
    ], ids=["contains-without-t", "convolve-without-other", "plot-grid-resolution-1",
            "exponent-above-order", "normalize-negative-exponent",
            "borel-bound-above-float-range",
            "idempotent-grid-over-budget", "lambda-p-grid-over-budget",
            "plot-grid-resolution-over-budget", "certify-t0-square-underflow",
            "certify-subnormal-t0", "certify-R-overflow", "certify-R-overflow-edge",
            "certify-C-overflow", "certify-t0-square-overflow",
            "certify-margin-scale-underflow", "threshold-mu-underflow",
            "threshold-T0-underflow", "certify-infinite-margin",
            "certify-x0-overflow", "certify-infinite-margin-large-t0",
            "certify-infinite-margin-tiny-r"])
    def test_missing_or_inconsistent_argument_is_exit_two(self, capsys, argv, message):
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        if message.startswith("lienorm "):
            assert err.startswith("usage: lienorm ") and err.endswith("\n%s\n" % message)
        else:
            assert err == "error: %s\n" % message

    # each check or action takes only the options it reads
    @pytest.mark.parametrize("argv", [
        ["norms", "borel", "--k", "5"],
        ["norms", "borel", "--grid", "3"],
        ["norms", "nagumo", "--x", "1/2"],
        ["norms", "lambda-p", "--x", "1/2"],
        ["defset", "idempotent", "--set", "diagonal", "--t", "1/2"],
        ["defset", "convolve", "--set", "diagonal", "--other", "diagonal", "--grid", "3"],
        ["defset", "contains", "--set", "diagonal", "--t", "1", "--s", "1/2",
         "--other", "diagonal"],
    ], ids=lambda argv: argv[1] + argv[-2][1:])
    def test_foreign_option_is_exit_two(self, capsys, argv):
        code, out, err = run_capture(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: %s\n" % " ".join(argv[-2:]))

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = run(["threshold", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["T0"] > 0

    @pytest.mark.parametrize("n", ["2", "1", "0"])
    def test_qtable_small_n_is_exit_two(self, capsys, n):
        code, out, err = run_capture(capsys, "qtable", "--n", n)
        assert code == 2
        assert err.startswith("error: need n >= 3")
        assert out == ""

    @pytest.mark.parametrize("ns", [",", ""])
    def test_qtable_empty_n_list_is_exit_two(self, capsys, ns):
        code, out, err = run_capture(capsys, "qtable", "--n", ns)
        assert code == 2
        assert "argument --n: empty list" in err
        assert out == ""

    def test_unwritable_output_is_exit_two(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_capture(capsys, "norms", "borel", "--out", str(target))
        assert code == 2
        assert err.startswith("error: ")
        assert out == ""
        assert not target.exists()


MALFORMED_SETS = {
    "compose-of-numbers": '{"op":"compose","outer":1,"inner":1}',
    "linear-without-c": '{"op":"linear","a":"1/2"}',
    "list": '[1]',
    "min-without-right": '{"op":"min","left":{"op":"linear","a":1,"c":0}}',
    "zero-denominator": '{"op":"linear","a":"1/0","c":0}',
}
# a field that is no number; through --set, evaluating the boundary may
# trip over it, while through --other only the reader can stop it
MALFORMED_FIELDS = {
    "null-field": '{"op":"linear","a":1,"c":null}',
    "true-field": '{"op":"linear","a":true,"c":0}',
    "list-field": '{"op":"linear","a":1,"c":[1]}',
    "nan-field": '{"op":"linear","a":NaN,"c":0}',
    "node-field": '{"op":"linear","a":1,"c":{"op":"linear","a":1,"c":0}}',
}
# convolve returns an --other set unchanged when --set is closed-diagonal,
# so a node that slips past the reader reaches stdout there
MALFORMED = {
    **{"set-" + k: ["defset", "contains", "--set", s, "--t", "1", "--s", "1/2"]
       for k, s in MALFORMED_SETS.items()},
    **{"other-" + k: ["defset", "convolve", "--set", "closed-diagonal", "--other", s]
       for k, s in {**MALFORMED_SETS, **MALFORMED_FIELDS}.items()},
    "coeffs-zero-denominator": ["norms", "nagumo", "--coeffs", "1/0"],
}


@pytest.mark.parametrize("argv", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_exit_two(capsys, argv):
    code, out, err = run_capture(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("coeffs", ["0,1/0", "1,,2", "1,2,", ""])
def test_coeffs_are_read_by_argparse(capsys, coeffs):
    # an empty entry is an error too: a coefficient's position is its power
    code, out, err = run_capture(capsys, "norms", "nagumo", "--coeffs=" + coeffs)
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "argument --coeffs: not an exact number" in err


def _commands(parser, path=()):
    """(argv prefix, parser) of each command under parser: a parser with
    no subcommands of its own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _commands(child, path + (name,))


COMMANDS = dict(_commands(cli.build_parser()))
# one valid run of each command; a new command needs a row here
COMMAND_ARGV = {
    ("morse-trace",): ["--steps", "1"],
    ("normalize",): ["--steps", "1"],
    ("certify",): ["--t0", "1/250", "--steps", "1"],
    ("threshold",): [],
    ("optimize",): ["--mode", "basic"],
    ("qtable",): ["--n", "3"],
    ("prisma",): ["--t", "1", "--s", "3/4", "--x", "1/16", "--steps", "2"],
    ("defset", "contains"): ["--set", "diagonal", "--t", "1", "--s", "1/2"],
    ("defset", "convolve"): ["--set", "diagonal", "--other", "closed-diagonal"],
    ("defset", "idempotent"): ["--set", "diagonal", "--grid", "2"],
    ("norms", "nagumo"): [],
    ("norms", "borel"): [],
    ("norms", "lambda-p"): ["--grid", "2"],
    ("plot-grid",): ["--resolution", "3"],
}


@pytest.mark.parametrize("path", COMMANDS, ids=" ".join)
def test_command_reads_every_option_it_declares(capsys, path):
    # run's steps, on a namespace that records each attribute read
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            read.add(name)
            return super().__getattribute__(name)

    args = Recording(**vars(cli.build_parser().parse_args([*path, *COMMAND_ARGV[path]])))
    read.clear()
    doc, code, *table = args.func(args)
    cli._write(cli._emit(doc, args, *table), args)
    assert code == 0 and capsys.readouterr().out
    declared = {a.dest for a in COMMANDS[path]._actions if a.dest != "help"}
    assert declared - read == set()


# stdout, stderr and exit code of these runs, recorded before the prisma
# exponent, the parametric flag and the definition-set domain S were
# removed; the normalize, morse-trace and nagumo cases were recorded
# before series moved to integer numerators over one denominator; the
# plot-grid cases were recorded before the objectives became row kernels;
# the certify, threshold and last two prisma cases were recorded with the
# exponent of rapid_convergence_check fitted, and those two prisma cases
# have since moved from rho 2.034... and 2.022... to the structural rho 2;
# the constant-trajectory prisma case was recorded when it passed with
# C 1.0, and has since moved to exit 1; the defset-contains-outside case
# was re-recorded when contains began to decide on the exact --t and --s;
# the condition ii margin of certify-steps3-pass and certify-fail-exit1 was
# re-recorded when conditions i-iii became the certified chain's step-0
# tests (0.0008456226861638192 -> ...207, -0.0018726591422952264 -> ...262)
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_golden_bytes(capsys, case):
    code, out, err = run_capture(capsys, *case["argv"])
    assert (code, out, err) == (case["exit_code"], case["stdout"], case["stderr"])
    if out and "csv" not in case["argv"]:
        strict_json(out)


def _readme_commands():
    """Each lienorm line of README's command-line block, continuation
    lines joined, as an argv without the program name."""
    readme = Path(__file__).parents[1].joinpath("README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    argvs = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("lienorm ")]
    assert argvs, "no lienorm line in README's command-line block"
    return argvs


README_COMMANDS = _readme_commands()


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[
    "-".join(a[:1] if a[1].startswith("-") else a[:2]) for a in README_COMMANDS])
def test_readme_example(capsys, argv):
    code, out, err = run_capture(capsys, *argv)
    assert (code, err) == (0, "")
    if "--format" in argv and argv[argv.index("--format") + 1] == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)
    else:
        strict_json(out)
