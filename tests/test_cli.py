"""Command-line interface: exit codes, artifacts, determinism."""

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import enslab
from enslab import ens_jl, ens_sr, reference
from enslab.cli import main
from enslab.errors import CheckFailure
from enslab.fieldio import read_scalar, read_vector

JL_RUN = """
system = jl
nu = 0.1
dt = 2e-3
T = 0.02
grid = 16
ic = lift_plus_flow
forcing = rotational
"""

SR_RUN = """
system = sr
lambda = 2.0
nu = 0.1
dt = 2e-3
T = 0.02
grid = 16
ic = eigenmode_div
"""

GALERKIN_RUN = """
system = jl
route = galerkin
nu = 0.01
dt = 2e-3
T = 0.05
grid = 16
ic = vortex
modes = 6
"""

HEAT_RUN = """
system = jl
nu = 0.1
dt = 1e-3
T = 0.1
grid = 32
ic_mode = 1
"""


RUN_FILES = ["diagnostics.csv", "final_g.ensf", "final_u.u.ensf", "final_u.v.ensf",
             "summary.txt"]
HEAT_FILES = ["diagnostics.csv", "final_g.ensf", "summary.txt"]
GALERKIN_FILES = ["diagnostics.csv", "final_u.u.ensf", "final_u.v.ensf", "summary.txt"]
SR_TINY_DT = SR_RUN.replace("dt = 2e-3", "dt = 1e-300").replace("T = 0.02", "T = 1e-300")
SR_TINY_LAMBDA = SR_RUN.replace("lambda = 2.0", "lambda = 1e-300").replace("dt = 2e-3", "dt = 1e-3")
SR_TINY_LAMBDA_2 = SR_TINY_LAMBDA.replace("T = 0.02", "T = 2e-3")
SR_HUGE_LIFT = SR_RUN + "ic_eps = 1e308\n"
LIFT_OVERFLOWS = ("solver error (SolverError): initial state, t = 0: generalized Stokes solve: "
                  "the measure of finite data overflows (largest entry 9.904e+307)\n")
SMALL_JL = "system = jl\nnu = 0.1\ndt = 2e-3\nT = 0.02\ngrid = 16\n"
SMALL_SR = SMALL_JL.replace("jl", "sr") + "lambda = 2\n"
VANISHED = "margin decay_rate_within_1pct = -inf FAIL\nmargin sup_estimate = 0 PASS\n"
NO_RATE = "check failure: ||g|| = 0 at t = {}: no decay rate to fit\n"
INITIAL_FAIL = "margin run_completed = 0 FAIL\n"
JL_ENVELOPE = ("system = jl\ngrid = 16\nnu = 1e-308\ndt = 1e-12\nT = 2e-12\nic = vortex\n"
               "forcing = rotational\nforcing_amplitude = 1e6\n")
HEAT_TINY_DT = SMALL_JL.replace("dt = 2e-3", "dt = 1e-300").replace("T = 0.02", "T = 1e-299")
HUGE = "nu = 0.1\ndt = 2e-3\nT = 0.02\ngrid = 16\nic_amplitude = 1e308\n"
HUGE_JL, HUGE_SR = "system = jl\n" + HUGE, "system = sr\nlambda = 2\n" + HUGE
HUGE_GALERKIN = HUGE_JL + "route = galerkin\nmodes = 8\n"
TOO_FAST = ("solver error (CFLError): step 1, t = 0: time step 2.000e-03 exceeds the advective "
            "limit 0.000e+00 (max speed {}e+307, h = 6.250e-02)\n")
NON_FINITE_LIFT = ("solver error (SolverError): initial state, t = 0: generalized Stokes solve: "
                   "non-finite data\n")
NON_FINITE_U = "check failure: initial state, t = 0: non-finite velocity at t = 0\n"
NON_FINITE_FORCE = "check failure: initial state, t = 0: non-finite forcing at t = 0\n"
MMS_OVERFLOW = "system = jl\nforcing = mms\nnu = 1e307\ngrid = 16\ndt = 1e-3\nT = 2e-3\n"
SPLIT_OVERFLOW = "check failure: non-finite split measurement div_v_l2 at t = 0\n"
BLOW_UP = "coefficients grew non-finite (blow-up) at t = 0\n"
ROUTES = ["route_a", "route_b", "summary.txt"]
SUBRUNS = ["base", "eps_0", "eps_1", "eps_2", "summary.txt"]
ROUTES_FAIL, RUNS_FAIL = "margin routes_completed = 0 FAIL\n", "margin runs_completed = 0 FAIL\n"

# accepted configs, at the extremes and a few ordinary ones: (id, command,
# config, exit code, stderr, the artifacts, a part of summary.txt)
EXTREMES = [
    # the open walls relax in closed form, however small lambda dt is
    ("sr-direct-tiny-dt", "run", SR_TINY_DT + "route = direct\n", 0, "", RUN_FILES,
     "overall PASS\n"),
    ("sr-constructive-tiny-dt", "run", SR_TINY_DT, 0, "", RUN_FILES, "overall PASS\n"),
    ("sr-direct-tiny-lambda", "run", SR_TINY_LAMBDA + "route = direct\n", 0, "", RUN_FILES,
     "overall PASS\n"),
    ("sr-constructive-tiny-lambda", "run", SR_TINY_LAMBDA, 0, "", RUN_FILES, "overall PASS\n"),
    ("sr-direct-tiny-lambda-two-steps", "run", SR_TINY_LAMBDA_2 + "route = direct\n", 0, "",
     RUN_FILES, "margin gap_decay_excess = "),
    ("sr-constructive-tiny-lambda-two-steps", "run", SR_TINY_LAMBDA_2, 0, "", RUN_FILES,
     "margin gap_decay_excess = "),
    # the open-wall eigen lift of finite data whose mass would overflow
    ("sr-constructive-eigen-lift", "run", SR_HUGE_LIFT, 2, LIFT_OVERFLOWS, ["summary.txt"],
     INITIAL_FAIL),
    ("sr-direct-eigen-lift", "run", SR_HUGE_LIFT + "route = direct\n", 2, LIFT_OVERFLOWS,
     ["summary.txt"], INITIAL_FAIL),
    ("sr-constructive-lift-plus-flow", "run",
     SR_HUGE_LIFT.replace("eigenmode_div", "lift_plus_flow"), 2, LIFT_OVERFLOWS,
     ["summary.txt"], INITIAL_FAIL),
    ("sr-compare-eigen-lift", "compare", SR_HUGE_LIFT, 2, LIFT_OVERFLOWS,
     ["route_a", "route_b", "summary.txt"], "margin routes_completed = 0 FAIL\n"),
    ("sr-stability-lift-plus-flow", "stability",
     SR_HUGE_LIFT.replace("eigenmode_div", "lift_plus_flow") + "route = direct\n", 2,
     LIFT_OVERFLOWS, ["base", "eps_0", "eps_1", "eps_2", "summary.txt"],
     "margin runs_completed = 0 FAIL\n"),
    # heat data whose mass and norm overflow, judged by the first row
    ("heat-jl-lift-plus-flow-overflow", "heat",
     SMALL_JL + "ic = lift_plus_flow\nic_eps = 1e300\n", 3,
     "check failure: non-finite measurement l2 at t = 0\n", ["summary.txt"], INITIAL_FAIL),
    ("heat-jl-overflow", "heat", SMALL_JL + "ic_eps = 1e308\n", 3,
     "check failure: non-finite measurement l2 at t = 0\n", ["summary.txt"], INITIAL_FAIL),
    ("heat-sr-overflow", "heat", SMALL_SR + "ic_eps = 1e308\n", 3,
     "check failure: non-finite measurement l2 at t = 0\n", ["summary.txt"], INITIAL_FAIL),
    # heat data that vanish leave no rate to fit
    ("heat-jl-zero", "heat", SMALL_JL + "ic_eps = 0\n", 3, NO_RATE.format(0), HEAT_FILES,
     VANISHED),
    # tiny data are measured scaled by a power of two, so their norms do not
    # underflow; norms of 1e-320 data are subnormal, and their fit rests on
    # about ten significant bits
    ("heat-sr-subnormal", "heat", SMALL_SR + "ic_eps = 1e-320\n", 0, "", HEAT_FILES,
     "overall PASS\n"),
    ("heat-jl-subnormal", "heat", SMALL_JL + "ic_eps = 1e-320\n", 3, "", HEAT_FILES,
     "margin decay_rate_within_1pct = -0.0468"),
    ("heat-jl-vanishing", "heat", "system = jl\nnu = 1\ndt = 0.01\nT = 0.1\ngrid = 16\n"
     "ic_eps = 1e-161\n", 0, "", HEAT_FILES, "overall PASS\n"),
    ("heat-jl-tiny", "heat", SMALL_JL + "ic_eps = 1e-161\n", 0, "", HEAT_FILES,
     "overall PASS\n"),
    # steps of 1e-300 fit a rate in closed form: the slope of round-off, far
    # from the analytic one, and finite (no check-failure line)
    ("heat-jl-tiny-dt", "heat", HEAT_TINY_DT, 3, "", HEAT_FILES,
     "margin decay_rate_within_1pct = -"),
    ("heat-sr-tiny-dt", "heat", HEAT_TINY_DT.replace("jl", "sr") + "lambda = 2\n", 3, "",
     HEAT_FILES, "margin decay_rate_within_1pct = -"),
    # split measurements that overflow fail before any artifact
    ("decompose-huge-amplitude", "decompose",
     SMALL_JL + "ic = lift_plus_flow\nic_amplitude = 1e300\n", 3, SPLIT_OVERFLOW,
     ["summary.txt"], INITIAL_FAIL),
    # a manufactured force that overflows where it is sampled
    ("mms-force-overflow-jl-direct", "run", MMS_OVERFLOW + "route = direct\nic = mms\n", 3,
     NON_FINITE_FORCE, ["summary.txt"], INITIAL_FAIL),
    ("mms-force-overflow-galerkin", "run",
     MMS_OVERFLOW + "route = galerkin\nmodes = 8\nic = vortex\n", 3, NON_FINITE_FORCE,
     ["summary.txt"], INITIAL_FAIL),
    # a Gronwall envelope that overflows fails as a check, artifacts written
    ("jl-envelope-overflow", "run", JL_ENVELOPE, 3,
     "check failure: non-finite energy envelope at t = 1e-12\n", RUN_FILES,
     "margin energy_envelope_min = -inf FAIL\n"),
    ("jl-compare-envelope-overflow", "compare", JL_ENVELOPE, 3,
     "check failure: non-finite energy envelope at t = 1e-12\n",
     ["compare.csv"] + ROUTES, ROUTES_FAIL),
    # a finite right-hand side whose sum of squares overflows
    ("huge-forcing-jl-direct", "run", JL_RUN.replace("lift_plus_flow", "vortex")
     + "route = direct\nforcing_amplitude = 1e308\n", 2,
     "solver error (SolverError): step 1, t = 0: generalized Stokes solve: the measure of "
     "finite data overflows (largest entry 1.962e+305)\n", ["summary.txt"], INITIAL_FAIL),
    # finite data of amplitude 1e308, whose measurements overflow, end as
    # each route judges them
    ("huge-vortex-jl-direct", "run", HUGE_JL + "ic = vortex\nroute = direct\n", 2,
     TOO_FAST.format(9.745), ["summary.txt"], INITIAL_FAIL),
    ("huge-vortex-sr-decomposed", "run", HUGE_SR + "ic = vortex\n", 2, TOO_FAST.format(9.745),
     ["summary.txt"], INITIAL_FAIL),
    ("huge-vortex-jl-compare", "compare", HUGE_JL + "ic = vortex\n", 2, TOO_FAST.format(9.745),
     ROUTES, ROUTES_FAIL),
    ("huge-vortex-sr-stability", "stability", HUGE_SR + "ic = vortex\nroute = direct\n", 2,
     TOO_FAST.format(9.745), SUBRUNS, RUNS_FAIL),
    ("huge-lift-plus-flow-jl-direct", "run", HUGE_JL + "ic = lift_plus_flow\nroute = direct\n",
     2, TOO_FAST.format(9.745), ["summary.txt"], INITIAL_FAIL),
    ("huge-lift-plus-flow-sr-compare", "compare", HUGE_SR + "ic = lift_plus_flow\n", 2,
     TOO_FAST.format(9.745), ROUTES, ROUTES_FAIL),
    ("huge-lift-plus-flow-jl-stability", "stability",
     HUGE_JL + "ic = lift_plus_flow\nroute = direct\n", 2, TOO_FAST.format(9.745), SUBRUNS,
     RUNS_FAIL),
    ("huge-boundary-flux-sr-direct", "run", HUGE_SR + "ic = boundary_flux\nroute = direct\n",
     2, TOO_FAST.format(9.808), ["summary.txt"], INITIAL_FAIL),
    ("huge-boundary-flux-sr-stability", "stability",
     HUGE_SR + "ic = boundary_flux\nroute = direct\n", 2, TOO_FAST.format(9.808), SUBRUNS,
     RUNS_FAIL),
    ("huge-random-jl-decomposed", "run", HUGE_JL + "ic = random_solenoidal\n", 2,
     NON_FINITE_LIFT, ["summary.txt"], INITIAL_FAIL),
    ("huge-random-sr-direct", "run", HUGE_SR + "ic = random_solenoidal\nroute = direct\n", 3,
     NON_FINITE_U, ["summary.txt"], INITIAL_FAIL),
    ("huge-random-jl-compare", "compare", HUGE_JL + "ic = random_solenoidal\n", 2,
     NON_FINITE_LIFT, ROUTES, ROUTES_FAIL),
    ("huge-random-sr-stability", "stability",
     HUGE_SR + "ic = random_solenoidal\nroute = direct\n", 3, NON_FINITE_U * 4, SUBRUNS,
     RUNS_FAIL),
    ("huge-galerkin-vortex", "run", HUGE_GALERKIN + "ic = vortex\n", 3,
     "check failure: initial state, t = 0: " + BLOW_UP, ["summary.txt"], INITIAL_FAIL),
    ("huge-galerkin-random", "run", HUGE_GALERKIN + "ic = random_solenoidal\n", 3,
     "check failure: initial state, t = 0: " + BLOW_UP, ["summary.txt"], INITIAL_FAIL),
    ("huge-galerkin-forcing", "run", HUGE_GALERKIN.replace("ic_amplitude", "forcing_amplitude")
     + "ic = vortex\nforcing = rotational\n", 3, "check failure: " + BLOW_UP,
     GALERKIN_FILES, INITIAL_FAIL),
    # ordinary configs, and nu = 1e300 on jl direct, end 0
    ("jl-direct", "run", JL_RUN + "route = direct\n", 0, "", RUN_FILES,
     "margin run_completed = 1 PASS\n"),
    ("jl-direct-huge-viscosity-vortex", "run",
     SMALL_JL.replace("nu = 0.1", "nu = 1e300") + "ic = vortex\nroute = direct\n", 0, "",
     RUN_FILES, "margin divergence_ceiling = "),
    ("galerkin", "run", SMALL_JL + "route = galerkin\nmodes = 8\nic = vortex\n", 0, "",
     GALERKIN_FILES, "margin energy_monotone = "),
    ("galerkin-forced", "run",
     SMALL_JL + "route = galerkin\nmodes = 8\nic = vortex\nforcing = rotational\n", 0, "",
     GALERKIN_FILES, "margin ledger_rate = "),
    ("heat-jl-lift-plus-flow", "heat", JL_RUN, 0, "", HEAT_FILES,
     "margin decay_rate_within_1pct = 0.00679"),
]


def cfg_file(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_cli(tmp_path, command, text, extra=(), name="run.cfg", sub="out"):
    out = str(tmp_path / sub)
    code = main([command, "--config", cfg_file(tmp_path, text, name),
                 "--out", out, *extra])
    return code, out


def csv_rows(path):
    """Data rows of a diagnostics CSV (header excluded)."""
    return Path(path).read_text().strip().splitlines()[1:]


class TestExitCodes:
    def test_successful_run_exits_zero(self, tmp_path):
        code, _ = run_cli(tmp_path, "run", JL_RUN)
        assert code == 0

    def test_config_error_exits_one(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "run", JL_RUN + "viscosity = 1\n")
        assert code == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.cfg")])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    def test_step_size_guard_exits_two(self, tmp_path, capsys):
        text = JL_RUN.replace("dt = 2e-3", "dt = 0.5").replace("T = 0.02", "T = 0.5")
        code, _ = run_cli(tmp_path, "run", text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solver error (CFLError)")

    def test_check_failure_exits_three_and_writes_artifacts(self, tmp_path, capsys):
        text = GALERKIN_RUN + "forcing = rotational\nforcing_amplitude = 1e200\n"
        code, out = run_cli(tmp_path, "run", text)
        assert code == 3
        assert "check failure" in capsys.readouterr().err
        summary = Path(out, "summary.txt").read_text()
        assert "overall FAIL" in summary
        assert os.path.exists(os.path.join(out, "final_u.u.ensf"))

    def test_failing_energy_ledger_still_writes_artifacts(self, tmp_path, monkeypatch,
                                                          capsys):
        # inflated advection pairings make dt * c >= 1, so the envelope
        # recursion refuses the run after it has stepped to the end
        real = ens_jl.skew_advect
        monkeypatch.setattr(ens_jl, "skew_advect", lambda a, b: real(a, b) * 1e12)
        code, out = run_cli(tmp_path, "run", JL_RUN)
        assert code == 3
        assert "cannot certify" in capsys.readouterr().err
        assert len(csv_rows(os.path.join(out, "diagnostics.csv"))) == 11
        summary = Path(out, "summary.txt").read_text()
        assert "margin run_completed = 1 PASS" in summary
        assert "margin energy_envelope_min = -inf FAIL" in summary
        assert "overall FAIL" in summary
        assert os.path.exists(os.path.join(out, "final_u.u.ensf"))
        assert os.path.exists(os.path.join(out, "final_g.ensf"))

    @pytest.mark.parametrize("module, text, what, step", [
        (ens_sr, SR_RUN + "route = direct\nforcing = rotational\n", "velocity", 3),
        (ens_jl, JL_RUN + "route = direct\n", "velocity", 3),
        # ens_jl's own transport call is the ledger's, one a step
        (ens_jl, JL_RUN, "energy ledger pairing", 3),
        # the Heun step makes two, so the 3rd is the first of step 2
        (reference, SR_RUN, "velocity", 2),
        # a finite amplitude whose split measurements overflow fails at t = 0
        (ens_jl, JL_RUN + "ic_amplitude = 1e300\n", "split measurement div_v_l2", 0),
    ], ids=["sr-direct", "jl-direct", "jl-decomposed-ledger", "sr-constructive",
            "jl-decomposed-huge-amplitude"])
    def test_non_finite_state_exits_three_naming_the_time(self, tmp_path, monkeypatch,
                                                          capsys, module, text, what, step):
        # the 3rd transport evaluation blows up, so step `step` is the first
        # one with non-finite values; the rows before it are kept
        real, calls = module.skew_advect, []

        def blow_up_third(w, b):
            calls.append(w)
            out = real(w, b)
            return out * np.inf if len(calls) == 3 else out

        monkeypatch.setattr(module, "skew_advect", blow_up_third)
        # outside the test runner a numpy warning is printed to stderr before
        # the message; the injection's own `out * np.inf` may warn, so only
        # warnings raised in the package count
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run_cli(tmp_path, "run", text)
        assert code == 3
        err = capsys.readouterr().err
        package = os.path.dirname(enslab.__file__)
        assert not [(w.filename, w.lineno, str(w.message)) for w in caught
                    if issubclass(w.category, RuntimeWarning)
                    and os.path.abspath(w.filename).startswith(package + os.sep)]
        if step == 0:
            # nothing was injected: no numpy warning at all
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert f"non-finite {what} at t = {step * 2e-3:.6g}" in err
        csv = os.path.join(out, "diagnostics.csv")
        # a run that fails at t = 0 has no row, and so no CSV
        rows = csv_rows(csv) if step else []
        assert os.path.exists(csv) == (step > 0)
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx(
            [n * 2e-3 for n in range(step)])
        assert "overall FAIL" in Path(out, "summary.txt").read_text()

    @pytest.mark.parametrize("text, error, where, message", [
        # step 1 relaxes the walls to the same value on every face, so the
        # lambda terms of the wall data cancel in the source, but only after
        # those lambda-sized data have absorbed the order-one transport term
        # of each wall datum: a net source of order one
        (SR_RUN.replace("lambda = 2.0", "lambda = 1e300").replace("eigenmode_div", "vortex")
         + "route = direct\n", "CompatibilityError", "step 2, t = 0.002",
         "pressure problem incompatible: net source 1.164e-02"),
        # a finite right-hand side whose sum of squares overflows
        (JL_RUN + "route = direct\nforcing_amplitude = 1e308\n",
         "SolverError", "step 1, t = 0", "generalized Stokes solve: the measure of finite data "
         "overflows (largest entry 1.962e+305)"),
        # the initial Stokes lift of finite divergence data whose measure overflows
        (SR_RUN + "ic_eps = 1e300\n", "SolverError", "initial state, t = 0", "generalized "
         "Stokes solve: the measure of finite data overflows (largest entry 9.904e+299)"),
    ], ids=["sr-direct-huge-lambda", "jl-direct-huge-forcing", "sr-initial-lift"])
    def test_overflowing_data_exit_two_naming_the_step(self, tmp_path, capsys, text, error,
                                                       where, message):
        code, _ = run_cli(tmp_path, "run", text)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"solver error ({error}): {where}: {message}")

    @pytest.mark.parametrize("text", [
        JL_RUN.replace("nu = 0.1", "nu = 1e307").replace("rotational", "mms")
        + "route = direct\n",
        GALERKIN_RUN.replace("nu = 0.01", "nu = 1e307") + "forcing = mms\n",
    ], ids=["jl-direct", "galerkin"])
    def test_overflowing_force_fails_the_initial_state(self, tmp_path, capsys, text):
        # nu Lap u* of the manufactured force overflows; the force is scanned
        # once, when the run builds its initial state
        code, out = run_cli(tmp_path, "run", text)
        assert code == 3
        assert capsys.readouterr().err == NON_FINITE_FORCE
        assert Path(out, "summary.txt").read_text() == (
            "margin run_completed = 0 FAIL\noverall FAIL\n")

    def test_overflowing_galerkin_ledger_fails_as_a_check(self, tmp_path, capsys):
        # the coefficients stay finite; the energies of the ledger overflow
        text = ("system = jl\nroute = galerkin\ngrid = 16\nmodes = 8\nic = vortex\n"
                "ic_amplitude = 1e154\nnu = 0.1\ndt = 1e-200\nT = 3e-200\n")
        code, out = run_cli(tmp_path, "run", text)
        assert code == 3
        err = capsys.readouterr().err
        assert err == "check failure: non-finite energy ledger defect at t = 2e-200\n"
        summary = Path(out, "summary.txt").read_text()
        assert "margin run_completed = 1 PASS\nmargin ledger_rate = -inf FAIL\n" in summary
        assert summary.endswith("overall FAIL\n")
        assert len(csv_rows(os.path.join(out, "diagnostics.csv"))) == 4
        assert os.path.exists(os.path.join(out, "final_u.u.ensf"))

    @pytest.mark.parametrize("text", [
        # at nu * dt = 2e297 the heat step keeps in effect only the constant
        # mode of div u, which the Stokes solve's divergence data carry into
        # no velocity, and the solve's multipliers at c = nu * dt stay finite
        JL_RUN.replace("nu = 0.1", "nu = 1e300") + "route = direct\n",
        # the lambda term of the compatibility constant takes the outward flux
        # of the faces that carry the wall data, so the two cancel to the
        # round-off of that flux, which the vortex's walls do not carry
        SR_RUN.replace("lambda = 2.0", "lambda = 1e12").replace("eigenmode_div", "vortex")
        + "route = direct\n",
    ], ids=["jl-direct-huge-viscosity", "sr-direct-large-lambda"])
    def test_extreme_valid_data_pass(self, tmp_path, text):
        code, out = run_cli(tmp_path, "run", text)
        assert code == 0
        assert Path(out, "summary.txt").read_text().endswith("overall PASS\n")

    def test_numpy_warnings_are_errors(self):
        # pyproject's filterwarnings turns each RuntimeWarning into an error,
        # so every test here fails on one
        with pytest.raises(RuntimeWarning):
            np.float64(1e308) * 10

    @pytest.mark.parametrize("command, text, code, error, files, summary",
                             [case[1:] for case in EXTREMES], ids=[case[0] for case in EXTREMES])
    def test_accepted_extremes(self, tmp_path, capsys, command, text, code, error, files,
                               summary):
        got, out = run_cli(tmp_path, command, text)
        assert got == code
        assert capsys.readouterr().err == error
        assert sorted(os.listdir(out)) == files
        verdict = Path(out, "summary.txt").read_text()
        assert summary in verdict
        assert verdict.endswith("overall PASS\n" if code == 0 else "overall FAIL\n")
        if "diagnostics.csv" in files:
            rows = [r.split(",")[1:] for r in csv_rows(os.path.join(out, "diagnostics.csv"))]
            assert rows and np.isfinite(np.array(rows, dtype=float)).all()

    def test_solver_error_leaves_only_a_failing_summary(self, tmp_path, capsys):
        # a command into the directory of an earlier, passing one ends early:
        # the earlier verdict and artifacts must not stay
        huge_amplitude = ("lift_plus_flow", "lift_plus_flow\nic_amplitude = 1e300")
        split_overflow = "non-finite split measurement div_v_l2 at t = 0"
        cases = [
            # a solver error in step 1
            ("run", SR_RUN.replace("eigenmode_div", "vortex") + "route = direct\n",
             ("lambda = 2.0", "lambda = 1e300"), 2, "solver error (CompatibilityError)"),
            # check failures before the first state: measurements overflow
            ("run", JL_RUN, huge_amplitude, 3, split_overflow),
            ("decompose", JL_RUN, huge_amplitude, 3, split_overflow),
            ("heat", HEAT_RUN.replace("grid = 32", "grid = 16"),
             ("ic_mode = 1", "ic_mode = 1\nic_eps = 1e300"), 3,
             "non-finite measurement l2 at t = 0"),
            # the initial Stokes lift of finite divergence data whose measure overflows
            ("run", SR_RUN, ("eigenmode_div", "eigenmode_div\nic_eps = 1e300"), 2,
             "solver error (SolverError): initial state, t = 0: generalized Stokes solve: "
             "the measure of finite data overflows (largest entry 9.9"),
        ]
        for k, (command, text, change, code, error) in enumerate(cases):
            code0, out = run_cli(tmp_path, command, text, sub=f"out{k}")
            assert code0 == 0
            assert "overall PASS" in Path(out, "summary.txt").read_text()
            code1, out = run_cli(tmp_path, command, text.replace(*change), name="again.cfg",
                                 sub=f"out{k}")
            assert code1 == code
            assert error in capsys.readouterr().err
            assert os.listdir(out) == ["summary.txt"]
            summary = Path(out, "summary.txt").read_text()
            assert summary == "margin run_completed = 0 FAIL\noverall FAIL\n"

    @pytest.mark.parametrize("command, text, change, table, subdirs, code, error", [
        ("compare", SR_RUN.replace("eigenmode_div", "vortex"), ("lambda = 2.0", "lambda = 1e300"),
         "compare.csv", ["route_a", "route_b"], 2, "solver error (CompatibilityError)"),
        ("stability", SR_RUN.replace("eigenmode_div", "vortex") + "route = direct\n",
         ("lambda = 2.0", "lambda = 1e300"), "ratios.csv", ["base", "eps_0", "eps_1", "eps_2"],
         2, "solver error (CompatibilityError)"),
        ("convergence", SR_RUN.replace("eigenmode_div", "mms").replace("grid = 16", "grid = 8")
         + "forcing = mms\nroute = direct\n", ("lambda = 2.0", "lambda = 1e300"), "errors.csv",
         ["grid_008", "grid_016", "grid_032"], 2, "solver error (CompatibilityError)"),
        # every sub-run fails a check before its first state
        ("stability", JL_RUN, ("lift_plus_flow", "lift_plus_flow\nic_amplitude = 1e300"),
         "ratios.csv", ["base", "eps_0", "eps_1", "eps_2"], 3,
         "non-finite split measurement div_v_l2 at t = 0"),
        # the initial velocity's Stokes lift overflows, before any state
        ("compare", SR_RUN, ("eigenmode_div", "eigenmode_div\nic_eps = 1e300"), "compare.csv",
         ["route_a", "route_b"], 2,
         "solver error (SolverError): initial state, t = 0: generalized Stokes solve"),
        ("stability", SR_RUN, ("eigenmode_div", "eigenmode_div\nic_eps = 1e300"), "ratios.csv",
         ["base", "eps_0", "eps_1", "eps_2"], 2,
         "solver error (SolverError): initial state, t = 0: generalized Stokes solve"),
    ], ids=["compare", "stability", "convergence", "stability-check-failure-at-t0",
            "compare-initial-lift", "stability-initial-lift"])
    def test_solver_error_leaves_no_stale_study_verdict(self, tmp_path, capsys, command, text,
                                                         change, table, subdirs, code, error):
        code0, out = run_cli(tmp_path, command, text)
        assert code0 == 0
        assert sorted(os.listdir(out)) == sorted(subdirs + ["summary.txt", table])
        code1, out = run_cli(tmp_path, command, text.replace(*change), name="again.cfg")
        assert code1 == code
        assert error in capsys.readouterr().err
        assert sorted(os.listdir(out)) == sorted(subdirs + ["summary.txt"])
        margin = "routes_completed" if command == "compare" else "runs_completed"
        summary = Path(out, "summary.txt").read_text()
        assert summary == f"margin {margin} = 0 FAIL\noverall FAIL\n"
        for sub in subdirs:
            assert os.listdir(os.path.join(out, sub)) == ["summary.txt"]
            summary = Path(out, sub, "summary.txt").read_text()
            assert summary == "margin run_completed = 0 FAIL\noverall FAIL\n"

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        listing = capsys.readouterr().out
        for command in ("run", "convergence", "compare", "stability", "basis", "heat",
                        "decompose"):
            assert command in listing
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: enslab run [-h] --config CONFIG")

    def test_a_command_parses_only_its_own_options(self, tmp_path, monkeypatch, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1
        assert "--config" in capsys.readouterr().err
        # a named command builds one parser, not the whole command table
        built, real = [], argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *a, **k: built.append(self) or real(self, *a, **k))
        code, _ = run_cli(tmp_path, "decompose", JL_RUN, extra=("--quiet", "--seed", "3"))
        assert code == 0
        assert len(built) == 1

    def test_check_failures_print_one_message_form(self, tmp_path, capsys):
        cases = [
            # kept by the run after its first state: the Galerkin route blows up
            ("run", GALERKIN_RUN + "forcing = rotational\nforcing_amplitude = 1e200\n",
             "step 1, t = 0: coefficients grew non-finite (blow-up) at t = 0.002\n"),
            # kept by the run at its initial state
            ("heat", HEAT_RUN.replace("ic_mode = 1", "ic_mode = 1\nic_eps = 1e300"),
             "non-finite measurement l2 at t = 0\n"),
            # raised to main
            ("decompose", JL_RUN + "ic_amplitude = 1e300\n",
             "non-finite split measurement div_v_l2 at t = 0\n"),
            # kept by the run while it builds its initial state
            ("run", JL_RUN + "ic_amplitude = 1e300\n",
             "initial state, t = 0: non-finite split measurement div_v_l2 at t = 0\n"),
        ]
        for k, (command, text, message) in enumerate(cases):
            code, _ = run_cli(tmp_path, command, text, sub=f"out{k}")
            assert code == 3
            assert capsys.readouterr().err.startswith("check failure: " + message)


class TestRunArtifacts:
    def test_jl_run_writes_expected_files(self, tmp_path):
        code, out = run_cli(tmp_path, "run", JL_RUN)
        assert code == 0
        header = Path(out, "diagnostics.csv").read_text().splitlines()[0]
        assert header.startswith("t,")
        assert "div_linf" in header and "energy" in header
        summary = Path(out, "summary.txt").read_text()
        assert "overall PASS" in summary
        assert "divergence_ceiling" not in summary  # lifted start is not solenoidal
        u, t = read_vector(os.path.join(out, "final_u"))
        assert u.grid.n == 16
        assert t == pytest.approx(0.02)
        g, _ = read_scalar(os.path.join(out, "final_g.ensf"))
        assert g.values.shape == (16, 16)

    def test_sr_run_reports_relaxation_margins(self, tmp_path):
        code, out = run_cli(tmp_path, "run", SR_RUN)
        assert code == 0
        summary = Path(out, "summary.txt").read_text()
        assert "gap_decay_excess" in summary
        assert "wall_follow" in summary
        assert "overall PASS" in summary

    def test_solenoidal_run_claims_divergence_ceiling(self, tmp_path):
        code, out = run_cli(tmp_path, "run", JL_RUN.replace("lift_plus_flow", "vortex"))
        assert code == 0
        summary = Path(out, "summary.txt").read_text()
        assert "divergence_ceiling" in summary
        assert "overall PASS" in summary

    def test_galerkin_run_margins(self, tmp_path):
        code, out = run_cli(tmp_path, "run", GALERKIN_RUN)
        assert code == 0
        summary = Path(out, "summary.txt").read_text()
        assert "ledger_rate" in summary
        assert "energy_monotone" in summary
        assert "overall PASS" in summary
        header = Path(out, "diagnostics.csv").read_text().splitlines()[0]
        assert "coeff_l2" in header

    def test_runs_are_bit_deterministic(self, tmp_path):
        cases = [
            ("run", JL_RUN, ["diagnostics.csv"]),
            ("run", SR_RUN, ["diagnostics.csv"]),
            ("run", SR_RUN + "route = direct\n", ["diagnostics.csv"]),
            ("compare", JL_RUN,
             ["compare.csv", "route_a/diagnostics.csv", "route_b/diagnostics.csv"]),
        ]
        for k, (command, text, files) in enumerate(cases):
            code1, out1 = run_cli(tmp_path, command, text, sub=f"{k}a")
            code2, out2 = run_cli(tmp_path, command, text, sub=f"{k}b", name="again.cfg")
            assert code1 == code2 == 0
            for name in files:
                a = Path(out1, name).read_bytes()
                b = Path(out2, name).read_bytes()
                assert a == b, f"{command}: {text!r}: {name}"

    def test_memory_does_not_grow_with_step_count(self, tmp_path):
        # Each extra state of a kept history would cost ~27 kB (a velocity)
        # or ~8 kB (a divergence) at N = 32; a streaming run keeps one row of
        # scalars per step (~0.6 kB).
        # The decomposed routes' states also carry the cache (v, z).
        run_text = """
        system = sr
        lambda = 2.0
        nu = 0.1
        dt = 1e-3
        grid = 32
        ic = boundary_flux
        forcing = rotational
        """
        jl_text = """
        system = jl
        nu = 0.1
        dt = 1e-3
        grid = 32
        ic = lift_plus_flow
        forcing = rotational
        """
        heat_text = """
        system = jl
        nu = 0.1
        dt = 1e-3
        grid = 32
        """

        def peak_bytes(command, text, nsteps):
            tracemalloc.start()
            try:
                code, _ = run_cli(tmp_path, command, text + f"T = {nsteps * 1e-3:g}\n",
                                  name=f"{command}{nsteps}.cfg", sub=f"{command}{nsteps}")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        for command, text in (("run", run_text + "route = direct\n"), ("run", run_text),
                              ("run", jl_text), ("heat", heat_text)):
            peak_bytes(command, text, 10)  # builds the factor caches, which outlive a run
            short, long = peak_bytes(command, text, 20), peak_bytes(command, text, 200)
            assert long - short < 2 ** 20, (text, short, long)

    def test_seed_flag_controls_random_start(self, tmp_path):
        text = JL_RUN.replace("lift_plus_flow", "random_solenoidal")
        _, out1 = run_cli(tmp_path, "run", text, extra=("--seed", "1"), sub="s1")
        _, out2 = run_cli(tmp_path, "run", text, extra=("--seed", "2"), sub="s2")
        _, out3 = run_cli(tmp_path, "run", text, extra=("--seed", "1"), sub="s3")
        rows1 = Path(out1, "diagnostics.csv").read_text()
        rows2 = Path(out2, "diagnostics.csv").read_text()
        rows3 = Path(out3, "diagnostics.csv").read_text()
        assert rows1 != rows2
        assert rows1 == rows3

    def test_quiet_silences_stdout(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "run", JL_RUN, extra=("--quiet",))
        assert code == 0
        assert capsys.readouterr().out == ""


class TestStudies:
    def test_heat_decay_within_one_percent(self, tmp_path):
        code, out = run_cli(tmp_path, "heat", HEAT_RUN)
        assert code == 0
        summary = Path(out, "summary.txt").read_text()
        assert "decay_rate_within_1pct" in summary
        assert "overall PASS" in summary
        assert os.path.exists(os.path.join(out, "final_g.ensf"))

    def test_heat_needs_enough_steps_to_fit(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "heat", HEAT_RUN.replace("T = 0.1", "T = 5e-3"))
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_decompose_artifacts(self, tmp_path):
        code, out = run_cli(tmp_path, "decompose", JL_RUN)
        assert code == 0
        for stem in ("part_v.u.ensf", "part_z.u.ensf", "pressure_q.ensf"):
            assert os.path.exists(os.path.join(out, stem))
        summary = Path(out, "summary.txt").read_text()
        assert "grad_orthogonality" in summary
        assert "overall PASS" in summary

    def test_basis_writes_cache_layout(self, tmp_path):
        code, out = run_cli(tmp_path, "basis",
                            GALERKIN_RUN.replace("modes = 6", "modes = 4"))
        assert code == 0
        assert os.path.exists(os.path.join(out, "lambda.txt"))
        assert os.path.exists(os.path.join(out, "mode_000.u.ensf"))
        assert os.path.exists(os.path.join(out, "mode_003.v.ensf"))
        summary = Path(out, "summary.txt").read_text()
        assert "gram_deviation" in summary and "overall PASS" in summary

    def test_smaller_basis_leaves_no_stale_modes(self, tmp_path):
        for modes in (8, 4):
            code, out = run_cli(tmp_path, "basis",
                                GALERKIN_RUN.replace("modes = 6", f"modes = {modes}"),
                                name=f"basis{modes}.cfg")
            assert code == 0
        assert sorted(name for name in os.listdir(out) if name.startswith("mode_")) == [
            f"mode_{j:03d}.{c}.ensf" for j in range(4) for c in "uv"]
        assert len(Path(out, "lambda.txt").read_text().splitlines()) == 4

    def test_basis_modes_beyond_grid_limit_exit_one(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "basis",
                          GALERKIN_RUN.replace("modes = 6", "modes = 4000"))
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_compare_goes_on_when_one_route_fails(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = ens_sr.step_direct_sr

        def fail_fourth(s, dt):
            calls.append(s.time)
            if len(calls) == 4:
                raise CheckFailure("injected failure on step 4")
            return real(s, dt)

        monkeypatch.setattr(ens_sr, "step_direct_sr", fail_fourth)
        code, out = run_cli(tmp_path, "compare", SR_RUN)
        assert code == 3
        assert "injected failure on step 4" in capsys.readouterr().err
        assert len(csv_rows(os.path.join(out, "route_a", "diagnostics.csv"))) == 11
        assert len(csv_rows(os.path.join(out, "route_b", "diagnostics.csv"))) == 4
        assert len(csv_rows(os.path.join(out, "compare.csv"))) == 4
        assert "overall FAIL" in Path(out, "route_b", "summary.txt").read_text()
        assert "overall PASS" in Path(out, "route_a", "summary.txt").read_text()

        # route a's initial state fails a check (only the decomposed route
        # splits u0): route b still runs to the end
        def refuse(u, time=0.0):
            raise CheckFailure("injected failure of the initial split")

        monkeypatch.setattr(ens_jl, "decompose", refuse)
        code, out = run_cli(tmp_path, "compare", JL_RUN, sub="jl")
        assert code == 3
        assert "injected failure of the initial split" in capsys.readouterr().err
        assert os.listdir(os.path.join(out, "route_a")) == ["summary.txt"]
        assert "overall FAIL" in Path(out, "route_a", "summary.txt").read_text()
        assert len(csv_rows(os.path.join(out, "route_b", "diagnostics.csv"))) == 11
        assert "overall PASS" in Path(out, "route_b", "summary.txt").read_text()
        assert sorted(os.listdir(out)) == ["route_a", "route_b", "summary.txt"]

    def test_compare_routes(self, tmp_path):
        code, out = run_cli(tmp_path, "compare", SR_RUN)
        assert code == 0
        header = Path(out, "compare.csv").read_text().splitlines()[0]
        assert "gap_l2" in header and "gap_rel" in header
        assert "overall PASS" in Path(out, "summary.txt").read_text()

    def test_convergence_study_orders(self, tmp_path):
        text = """
        system = jl
        nu = 0.05
        dt = 4e-3
        T = 0.1
        grid = 8
        ic = mms
        forcing = mms
        """
        code, out = run_cli(tmp_path, "convergence", text)
        assert code == 0
        rows = Path(out, "errors.csv").read_text().strip().splitlines()
        assert len(rows) == 4  # header + three grids
        summary = Path(out, "summary.txt").read_text()
        assert "order_mean_above_1.8" in summary
        assert "overall PASS" in summary

    def test_convergence_requires_manufactured_setup(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "convergence", JL_RUN)
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_stability_ratio_spread(self, tmp_path):
        text = """
        system = jl
        nu = 0.05
        dt = 2.5e-3
        T = 0.05
        grid = 8
        ic = eigenmode_div
        ic_eps = 0.01
        """
        code, out = run_cli(tmp_path, "stability", text)
        assert code == 0
        ratios = Path(out, "ratios.csv").read_text().strip().splitlines()
        assert len(ratios) == 4  # header + three amplitudes
        summary = Path(out, "summary.txt").read_text()
        assert "ratio_spread_within_10pct" in summary
        assert "overall PASS" in summary

    def test_stability_rejects_the_galerkin_route(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "stability", GALERKIN_RUN)
        assert code == 1
        assert "route = galerkin" in capsys.readouterr().err
        assert not os.path.exists(out)


# Run in a fresh interpreter that refuses every scipy import: each case is
# (command, config path, output directory); the exit codes and the scipy
# modules loaded at the end are written as JSON to the second argument.
_SCIPY_BLOCKED = """
import importlib.abc, json, sys

class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
from enslab.cli import main

codes = {name: main([command, "--config", cfg, "--out", out, "--quiet"])
         for name, (command, cfg, out) in json.loads(sys.argv[1]).items()}
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
with open(sys.argv[2], "w") as f:
    json.dump({"codes": codes, "scipy": loaded}, f)
"""

_NO_SCIPY_CASES = {
    "jl-decomposed": ("run", JL_RUN),
    "jl-direct": ("run", JL_RUN + "route = direct\n"),
    "sr-constructive": ("run", SR_RUN),
    "sr-direct": ("run", SR_RUN + "route = direct\n"),
    "galerkin": ("run", GALERKIN_RUN),
    "compare": ("compare", JL_RUN),
    "heat": ("heat", HEAT_RUN.replace("grid = 32", "grid = 16")),
    "decompose": ("decompose", JL_RUN),
    "basis": ("basis", GALERKIN_RUN),
}


class TestNoSuperLU:
    """No command loads scipy, so none can factor a sparse matrix: every
    field route solves in the 1-D eigenbases and the Galerkin basis comes
    from numpy's dense eigensolver.  One interpreter, with scipy imports
    refused, runs every case."""

    @pytest.fixture(scope="class")
    def blocked(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("no_scipy")
        cases = {}
        for name, (command, text) in _NO_SCIPY_CASES.items():
            cfg = tmp / f"{name}.cfg"
            cfg.write_text(text)
            cases[name] = (command, str(cfg), str(tmp / name))
        result = tmp / "result.json"
        src = os.path.dirname(os.path.dirname(enslab.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_BLOCKED, json.dumps(cases), str(result)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        return json.loads(result.read_text())

    @pytest.mark.parametrize("name", list(_NO_SCIPY_CASES))
    def test_field_routes_build_no_sparse_factor(self, blocked, name):
        assert blocked["codes"][name] == 0

    def test_no_scipy_module_is_loaded(self, blocked):
        assert blocked["scipy"] == []


_RUN_ALL = """
import json, sys
from enslab.cli import main

sys.exit(max(main(["run", "--config", cfg, "--out", out, "--quiet"])
             for cfg, out in json.loads(sys.argv[1])))
"""

_N64 = "grid = 64\nnu = 0.1\ndt = 1e-3\nT = 0.01\nforcing = rotational\n"

_FIELD_ROUTES_N64 = {
    "jl-decomposed": "system = jl\nic = lift_plus_flow\n" + _N64,
    "jl-direct": "system = jl\nroute = direct\nic = lift_plus_flow\n" + _N64,
    "sr-constructive": "system = sr\nlambda = 2\nic = eigenmode_div\n" + _N64,
    "sr-direct": "system = sr\nlambda = 2\nroute = direct\nic = boundary_flux\n" + _N64,
}

_GALERKIN_N32 = {"galerkin": (
    "system = jl\nroute = galerkin\ngrid = 32\nmodes = 32\nnu = 0.01\ndt = 1e-3\n"
    "T = 0.01\nic = vortex\n")}


def run_pinned(tmp, threads, cases):
    """Run each case ({name: config text}) in one fresh interpreter whose
    BLAS uses `threads` threads; returns each run's artifacts as bytes."""
    tmp.mkdir()
    runs = []
    for name, text in cases.items():
        (tmp / f"{name}.cfg").write_text(text)
        runs.append((str(tmp / f"{name}.cfg"), str(tmp / name)))
    src = os.path.dirname(os.path.dirname(enslab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_ALL, json.dumps(runs)],
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads)),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return {(name, f): (tmp / name / f).read_bytes()
            for name in cases for f in sorted(os.listdir(tmp / name))}


class TestBlasThreadCount:
    """Reruns are bit-identical at a fixed BLAS thread count.  The field
    routes' artifacts do not depend on the count; the Galerkin route's do,
    through its basis and coupling tensor, so only its runs at one count
    are compared."""

    def test_field_routes_match_at_one_and_two_threads(self, tmp_path):
        one = run_pinned(tmp_path / "one", 1, _FIELD_ROUTES_N64)
        two = run_pinned(tmp_path / "two", 2, _FIELD_ROUTES_N64)
        assert one.keys() == two.keys()
        assert [key for key in one if one[key] != two[key]] == []

    def test_galerkin_reruns_match_at_a_fixed_count(self, tmp_path):
        first = run_pinned(tmp_path / "first", 2, _GALERKIN_N32)
        again = run_pinned(tmp_path / "again", 2, _GALERKIN_N32)
        assert first.keys() == again.keys()
        assert [key for key in first if first[key] != again[key]] == []
