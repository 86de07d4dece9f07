"""Command-line interface: exit codes, artifacts, determinism."""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.sparse.linalg._dsolve import _superlu

from enslab import ens_jl, ens_sr, galerkin, linsolve
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
    return open(path).read().strip().splitlines()[1:]


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
        summary = open(os.path.join(out, "summary.txt")).read()
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
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "margin run_completed = 1 PASS" in summary
        assert "margin energy_envelope_min = -inf FAIL" in summary
        assert "overall FAIL" in summary
        assert os.path.exists(os.path.join(out, "final_u.u.ensf"))
        assert os.path.exists(os.path.join(out, "final_g.ensf"))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning",
                                "ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("module, text", [
        (ens_sr, SR_RUN + "route = direct\nforcing = rotational\n"),
        (ens_jl, JL_RUN + "route = direct\n"),
    ], ids=["sr-direct", "jl-direct"])
    def test_non_finite_state_exits_three_naming_the_time(self, tmp_path, monkeypatch,
                                                          capsys, module, text):
        # the 3rd transport evaluation blows up, so the state at t = 3 dt is
        # the first one with non-finite values; the rows before it are kept
        real, calls = module.skew_advect, []

        def blow_up_third(w, b):
            calls.append(w)
            out = real(w, b)
            return out * np.inf if len(calls) == 3 else out

        monkeypatch.setattr(module, "skew_advect", blow_up_third)
        code, out = run_cli(tmp_path, "run", text)
        assert code == 3
        err = capsys.readouterr().err
        assert f"non-finite velocity at t = {3 * 2e-3:.6g}" in err
        rows = csv_rows(os.path.join(out, "diagnostics.csv"))
        assert [float(r.split(",")[0]) for r in rows] == pytest.approx([0.0, 2e-3, 4e-3])
        assert "overall FAIL" in open(os.path.join(out, "summary.txt")).read()

    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


class TestRunArtifacts:
    def test_jl_run_writes_expected_files(self, tmp_path):
        code, out = run_cli(tmp_path, "run", JL_RUN)
        assert code == 0
        header = open(os.path.join(out, "diagnostics.csv")).readline()
        assert header.startswith("t,")
        assert "div_linf" in header and "energy" in header
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "overall PASS" in summary
        assert "divergence_ceiling" not in summary  # lifted start is not solenoidal
        u, t = read_vector(os.path.join(out, "final_u"))
        assert u.grid.nx == 16
        assert t == pytest.approx(0.02)
        g, _ = read_scalar(os.path.join(out, "final_g.ensf"))
        assert g.values.shape == (16, 16)

    def test_sr_run_reports_relaxation_margins(self, tmp_path):
        code, out = run_cli(tmp_path, "run", SR_RUN)
        assert code == 0
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "gap_decay_excess" in summary
        assert "wall_follow" in summary
        assert "overall PASS" in summary

    def test_solenoidal_run_claims_divergence_ceiling(self, tmp_path):
        code, out = run_cli(tmp_path, "run", JL_RUN.replace("lift_plus_flow", "vortex"))
        assert code == 0
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "divergence_ceiling" in summary
        assert "overall PASS" in summary

    def test_galerkin_run_margins(self, tmp_path):
        code, out = run_cli(tmp_path, "run", GALERKIN_RUN)
        assert code == 0
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "ledger_rate" in summary
        assert "energy_monotone" in summary
        assert "overall PASS" in summary
        header = open(os.path.join(out, "diagnostics.csv")).readline()
        assert "coeff_l2" in header

    def test_runs_are_bit_deterministic(self, tmp_path):
        outputs = {
            "run": ["diagnostics.csv"],
            "compare": ["compare.csv", "route_a/diagnostics.csv", "route_b/diagnostics.csv"],
        }
        for command, files in outputs.items():
            _, out1 = run_cli(tmp_path, command, JL_RUN, sub=f"{command}1")
            _, out2 = run_cli(tmp_path, command, JL_RUN, sub=f"{command}2",
                              name="again.cfg")
            for name in files:
                a = open(os.path.join(out1, name), "rb").read()
                b = open(os.path.join(out2, name), "rb").read()
                assert a == b, f"{command}: {name}"

    def test_memory_does_not_grow_with_step_count(self, tmp_path):
        # Each extra state of a kept history would cost ~27 kB (a velocity)
        # or ~8 kB (a divergence) at N = 32; a streaming run keeps one row of
        # scalars per step (~0.6 kB).
        run_text = """
        system = sr
        route = direct
        lambda = 2.0
        nu = 0.1
        dt = 1e-3
        grid = 32
        ic = boundary_flux
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

        for command, text in (("run", run_text), ("heat", heat_text)):
            peak_bytes(command, text, 10)  # builds the factor caches, which outlive a run
            short, long = peak_bytes(command, text, 20), peak_bytes(command, text, 200)
            assert long - short < 2 ** 20, (command, short, long)

    def test_seed_flag_controls_random_start(self, tmp_path):
        text = JL_RUN.replace("lift_plus_flow", "random_solenoidal")
        _, out1 = run_cli(tmp_path, "run", text, extra=("--seed", "1"), sub="s1")
        _, out2 = run_cli(tmp_path, "run", text, extra=("--seed", "2"), sub="s2")
        _, out3 = run_cli(tmp_path, "run", text, extra=("--seed", "1"), sub="s3")
        rows1 = open(os.path.join(out1, "diagnostics.csv")).read()
        rows2 = open(os.path.join(out2, "diagnostics.csv")).read()
        rows3 = open(os.path.join(out3, "diagnostics.csv")).read()
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
        summary = open(os.path.join(out, "summary.txt")).read()
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
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "grad_orthogonality" in summary
        assert "overall PASS" in summary

    def test_basis_writes_cache_layout(self, tmp_path):
        code, out = run_cli(tmp_path, "basis",
                            GALERKIN_RUN.replace("modes = 6", "modes = 4"))
        assert code == 0
        assert os.path.exists(os.path.join(out, "lambda.txt"))
        assert os.path.exists(os.path.join(out, "mode_000.u.ensf"))
        assert os.path.exists(os.path.join(out, "mode_003.v.ensf"))
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "gram_deviation" in summary and "overall PASS" in summary

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
        assert "overall FAIL" in open(os.path.join(out, "route_b", "summary.txt")).read()
        assert "overall PASS" in open(os.path.join(out, "route_a", "summary.txt")).read()

    def test_compare_routes(self, tmp_path):
        code, out = run_cli(tmp_path, "compare", SR_RUN)
        assert code == 0
        header = open(os.path.join(out, "compare.csv")).readline()
        assert "gap_l2" in header and "gap_rel" in header
        assert "overall PASS" in open(os.path.join(out, "summary.txt")).read()

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
        rows = open(os.path.join(out, "errors.csv")).read().strip().splitlines()
        assert len(rows) == 4  # header + three grids
        summary = open(os.path.join(out, "summary.txt")).read()
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
        ratios = open(os.path.join(out, "ratios.csv")).read().strip().splitlines()
        assert len(ratios) == 4  # header + three amplitudes
        summary = open(os.path.join(out, "summary.txt")).read()
        assert "ratio_spread_within_10pct" in summary
        assert "overall PASS" in summary


class TestNoSuperLU:
    # Every field route solves its scalar and saddle-point systems in the
    # 1-D eigenbases, and the Galerkin basis comes from a dense eigensolve:
    # no route factors a sparse matrix.
    @pytest.mark.parametrize("command,text", [
        ("run", JL_RUN),
        ("run", JL_RUN + "route = direct\n"),
        ("run", SR_RUN),
        ("run", SR_RUN + "route = direct\n"),
        ("compare", JL_RUN),
        ("heat", HEAT_RUN.replace("grid = 32", "grid = 16")),
        ("run", GALERKIN_RUN),
    ], ids=["jl-decomposed", "jl-direct", "sr-constructive", "sr-direct", "compare", "heat",
            "galerkin"])
    def test_field_routes_build_no_sparse_factor(self, tmp_path, monkeypatch, command, text):
        def refuse(*args, **kwargs):
            raise AssertionError("a route factored a sparse matrix")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", refuse)
        monkeypatch.setattr(_superlu, "gstrf", refuse)
        monkeypatch.setattr(_superlu, "gssv", refuse)
        monkeypatch.setattr(linsolve, "_cache", {})
        monkeypatch.setattr(galerkin, "_basis_memo", {})
        code, _ = run_cli(tmp_path, command, text)
        assert code == 0


class TestThreadCap:
    def test_single_thread_cap_still_works(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENSLAB_THREADS", "1")
        code, out = run_cli(tmp_path, "compare", SR_RUN)
        assert code == 0
        assert os.path.exists(os.path.join(out, "compare.csv"))

    @pytest.mark.parametrize("bad", ["abc", "0", "-2"])
    def test_invalid_thread_cap_is_config_error(self, tmp_path, monkeypatch, bad, capsys):
        monkeypatch.setenv("ENSLAB_THREADS", bad)
        code, _ = run_cli(tmp_path, "compare", SR_RUN)
        assert code == 1
        assert "ENSLAB_THREADS" in capsys.readouterr().err

    def test_thread_setting_is_checked_for_every_command(self, tmp_path, monkeypatch,
                                                          capsys):
        monkeypatch.setenv("ENSLAB_THREADS", "two")
        code, out = run_cli(tmp_path, "run", JL_RUN)
        assert code == 1
        assert "ENSLAB_THREADS" in capsys.readouterr().err
        assert not os.path.exists(out)
