"""Command-line drivers: runs, studies, and all artifact writing.

Every subcommand reads one config file, writes artifacts under the output
directory (per-step CSV, final field dumps, a margin summary), and maps
failures to exit codes: 1 config, 2 solver (including step-size guards),
3 check failure.  A check failure still writes whatever artifacts exist.

Field runs step through scenarios.march and fold each state as it comes
into diagnostics rows and the energy ledger, so only the current state (and
the ledger's previous one) is held.  Studies run their sub-runs one after
another; compare steps its two routes in lockstep in one thread.
ENSLAB_THREADS sizes nothing, but a value that is not an integer >= 1 is
still a config error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from itertools import zip_longest

import numpy as np

from . import ens_jl, ens_sr, fieldio, galerkin, scenarios
from .config import Config, ConfigError, load_config
from .diagnostics import (
    DIV_CEILING, GAP_DECAY_TOL, GRAM_TOL, LEDGER_RATE_TOL, RECONSTRUCT_TOL, SPLIT_TOL,
    TINY, WALL_FOLLOW_RUN_TOL, convergence_order, fit_decay_rate, norms, passes,
)
from .errors import CheckFailure, SolverError
from .grid import (
    Grid,
    divergence,
    face_norm,
    grad_inner,
    normal_trace,
    scalar_norm,
)
from .heat_oracle import HeatEstimates, divergence_state, heat_step
from .stokes_lift import decompose

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

_DIV_FREE_PRESETS = ("zero", "vortex", "boundary_flux", "mms", "random_solenoidal")
# perturbation amplitudes of the stability study (inputs, not bounds)
_STABILITY_EPS = (1e-3, 1e-4, 1e-5)


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def _check_thread_setting() -> None:
    """Reject an ENSLAB_THREADS that is not an integer >= 1 (it sizes nothing)."""
    raw = os.environ.get("ENSLAB_THREADS", "")
    if raw.strip():
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigError(f"ENSLAB_THREADS must be an integer, got {raw!r}")
        if cap < 1:
            raise ConfigError(f"ENSLAB_THREADS must be at least 1, got {cap}")


def _initial_velocity(cfg: Config, grid: Grid):
    return scenarios.initial_velocity(
        grid, cfg.system, cfg.ic, eps=cfg.ic_eps, mode=cfg.ic_mode,
        amplitude=cfg.ic_amplitude, seed=cfg.seed)


def _field_metrics(cfg: Config, state) -> dict:
    u = state.u
    div = state.div_u
    m = {
        "u_l2": face_norm(u),
        "energy": 0.5 * face_norm(u) ** 2,
        "div_l2": scalar_norm(div),
        "div_linf": float(np.abs(div.values).max()),
        "g_l2": scalar_norm(state.g.g),
    }
    if cfg.system == "jl":
        m["u_h1_semi"] = math.sqrt(max(grad_inner(u, u), 0.0))
    else:
        m["wall_gap_linf"] = state.h.trace.blend(1.0, normal_trace(u), -1.0).max_abs()
        m["solvability_gap"] = ens_sr.solvability_gap(state.g, state.h)
        m["h_linf"] = state.h.trace.max_abs()
    if state.decomposed:
        m["v_l2"] = face_norm(state.v)
        m["z_l2"] = face_norm(state.z)
    return m


def _field_states(cfg: Config, u0):
    """The configured route's states: the initial one, then one per step."""
    fspec = scenarios.forcing_spec(cfg.forcing, cfg.forcing_amplitude, cfg.nu)
    decomposed = cfg.route == "decomposed"
    if cfg.system == "jl":
        state = ens_jl.jl_state(u0, cfg.nu, fspec, decomposed=decomposed)
        step = ens_jl.step_decomposed if decomposed else ens_jl.step_direct
    else:
        state = ens_sr.sr_state(u0, cfg.lam, cfg.nu, fspec, decomposed=decomposed)
        step = ens_sr.step_constructive if decomposed else ens_sr.step_direct_sr
    return scenarios.march(step, state, cfg.dt, cfg.nsteps)


def _field_margins(cfg: Config, rows, failure, ledger) -> list:
    entries = [("run_completed", 0.0 if failure else 1.0, failure is None)]
    if not rows:
        return entries
    if cfg.ic in _DIV_FREE_PRESETS:
        worst = max(m["div_linf"] for _, m in rows)
        entries.append(("divergence_ceiling", DIV_CEILING - worst, worst <= DIV_CEILING))
    if ledger is not None and not failure and len(rows) >= 2:
        try:
            rec = ledger.record()
        except CheckFailure as exc:
            print(f"check failure: {exc}", file=sys.stderr)
            entries.append(("energy_envelope_min", -math.inf, False))
        else:
            scale = max(rec["envelope_final"], rec["energy_initial"], 1.0)
            margin = rec["envelope_margin_min"]
            entries.append(("energy_envelope_min", margin, passes(margin, scale)))
    if cfg.system == "sr":
        gaps = [abs(m["solvability_gap"]) for _, m in rows]
        decay = math.exp(-cfg.lam * cfg.dt)
        excess = max(g - gaps[0] * decay ** n for n, g in enumerate(gaps))
        scale = max(1.0, rows[0][1]["g_l2"], rows[0][1]["h_linf"])
        entries.append(("gap_decay_excess", GAP_DECAY_TOL * scale - excess,
                        excess <= GAP_DECAY_TOL * scale))
        worst_wall = max(m["wall_gap_linf"] for _, m in rows)
        wall_scale = max(1.0, max(m["u_l2"] for _, m in rows))
        entries.append(("wall_follow", WALL_FOLLOW_RUN_TOL * wall_scale - worst_wall,
                        worst_wall <= WALL_FOLLOW_RUN_TOL * wall_scale))
    return entries


class _FieldRun:
    """One field run, folded a state at a time into rows and the energy ledger.

    Holds the final state, not the history.  Solver errors (step-size guard,
    linear solver breakdown) propagate; a CheckFailure ends the stepping and
    is kept, so that finish() still writes the artifacts.
    """

    def __init__(self, cfg: Config):
        self.cfg = cfg
        self.rows = []
        self.final = None
        self.failure = None
        self.code = None
        jl_decomposed = cfg.system == "jl" and cfg.route == "decomposed"
        self.ledger = ens_jl.EnergyLedger() if jl_decomposed else None

    def states(self, u0):
        """Yield each state as it is stepped, after folding it in."""
        try:
            for state in _field_states(self.cfg, u0):
                self.rows.append((state.time, _field_metrics(self.cfg, state)))
                if self.ledger is not None:
                    self.ledger.add(state)
                self.final = state
                yield state
        except CheckFailure as exc:
            self.failure = f"{type(exc).__name__}: {exc}"

    def finish(self) -> int:
        """Write the margins and artifacts under cfg.out; returns the exit code."""
        out_dir = self.cfg.out
        entries = _field_margins(self.cfg, self.rows, self.failure, self.ledger)
        fieldio.ensure_dir(out_dir)
        if self.rows:
            fieldio.write_csv(os.path.join(out_dir, "diagnostics.csv"), self.rows)
        if self.final is not None:
            s = self.final
            fieldio.write_vector(os.path.join(out_dir, "final_u"), s.u, s.time)
            fieldio.write_scalar(os.path.join(out_dir, "final_g.ensf"), s.g.g, s.time)
        ok = fieldio.write_summary(os.path.join(out_dir, "summary.txt"), entries)
        if self.failure:
            print(f"check failure: {self.failure}", file=sys.stderr)
        self.code = EXIT_CHECK if (self.failure or not ok) else EXIT_OK
        return self.code


def _run_field(cfg: Config, u0) -> _FieldRun:
    """Step one field run to its end and write its artifacts."""
    run = _FieldRun(cfg)
    for _ in run.states(u0):
        pass
    run.finish()
    return run


def _build_basis_checked(grid: Grid, modes: int):
    try:
        return galerkin.build_basis(grid, modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_galerkin(cfg: Config, out_dir: str) -> int:
    grid = Grid(cfg.grid)
    u0 = _initial_velocity(cfg, grid)
    basis = _build_basis_checked(grid, cfg.modes)
    start = galerkin.project_onto_basis(basis, u0)
    fspec = scenarios.forcing_spec(cfg.forcing, cfg.forcing_amplitude, cfg.nu)
    f_path = None if fspec.is_zero() else (lambda t: fspec.evaluate(grid, t))
    horizon = cfg.nsteps * cfg.dt
    failure = None
    try:
        trajectory = galerkin.integrate_galerkin(
            basis, start, cfg.nu, cfg.dt, horizon, f_path=f_path)
    except CheckFailure as exc:
        trajectory = [start]
        failure = f"{type(exc).__name__}: {exc}"
    rows = []
    for s in trajectory:
        coeff_l2 = math.sqrt(float(s.coeffs @ s.coeffs))
        rows.append((s.time, {
            "coeff_l2": coeff_l2,
            "energy": 0.5 * coeff_l2 ** 2,
            "grad_energy": float(basis.lam @ (s.coeffs * s.coeffs)),
        }))
    entries = [("run_completed", 0.0 if failure else 1.0, failure is None)]
    if not failure and len(trajectory) >= 3:
        rec = galerkin.galerkin_energy_ledger(
            basis, trajectory, cfg.nu, cfg.dt, f_path=f_path)
        rate = rec.metrics["imbalance_rate_max"]
        entries.append(("ledger_rate", LEDGER_RATE_TOL - rate, rate <= LEDGER_RATE_TOL))
        if fspec.is_zero():
            energies = [m["energy"] for _, m in rows]
            worst_rise = max(b - a for a, b in zip(energies, energies[1:]))
            entries.append(("energy_monotone", -worst_rise, passes(-worst_rise, energies[0])))
    fieldio.ensure_dir(out_dir)
    fieldio.write_csv(os.path.join(out_dir, "diagnostics.csv"), rows)
    final_field = galerkin.reconstruct(basis, trajectory[-1])
    fieldio.write_vector(os.path.join(out_dir, "final_u"), final_field,
                         trajectory[-1].time)
    ok = fieldio.write_summary(os.path.join(out_dir, "summary.txt"), entries)
    if failure:
        print(f"check failure: {failure}", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK if ok else EXIT_CHECK


def cmd_run(cfg: Config, quiet: bool) -> int:
    out_dir = cfg.out
    _say(quiet, f"run: system={cfg.system} route={cfg.route} grid={cfg.grid} "
                f"nu={cfg.nu:g} dt={cfg.dt:g} steps={cfg.nsteps}")
    if cfg.route == "galerkin":
        code = _run_galerkin(cfg, out_dir)
    else:
        code = _run_field(cfg, _initial_velocity(cfg, Grid(cfg.grid))).code
    _say(quiet, f"artifacts in {out_dir} ({'PASS' if code == EXIT_OK else 'FAIL'})")
    return code


def cmd_convergence(cfg: Config, quiet: bool) -> int:
    if cfg.ic != "mms" or cfg.forcing != "mms":
        raise ConfigError("convergence study needs ic = mms and forcing = mms "
                          "(exact steady reference)")
    if cfg.grid > 64:
        raise ConfigError("convergence study refines twice; grid must be <= 64")
    grids = [cfg.grid, cfg.grid * 2, cfg.grid * 4]
    subdirs = [os.path.join(cfg.out, f"grid_{n:03d}") for n in grids]
    sub_cfgs = [replace(cfg, grid=n, dt=cfg.dt * cfg.grid / n, out=d)
                for n, d in zip(grids, subdirs)]

    codes, errors = [], []
    for sub in sub_cfgs:
        grid = Grid(sub.grid)
        run = _run_field(sub, _initial_velocity(sub, grid))
        codes.append(run.code)
        errors.append(float("nan") if run.failure
                      else face_norm(run.final.u - scenarios.mms_velocity(grid)))
    fieldio.ensure_dir(cfg.out)
    fieldio.write_csv(os.path.join(cfg.out, "errors.csv"),
                      [(float(n), {"h": 1.0 / n, "error_l2": e})
                       for n, e in zip(grids, errors)])
    entries = [("runs_completed", 1.0 if max(codes) == EXIT_OK else 0.0,
                max(codes) == EXIT_OK)]
    if all(math.isfinite(e) and e > 0.0 for e in errors):
        est = convergence_order(*errors)
        _say(quiet, f"errors {errors[0]:.3e} / {errors[1]:.3e} / {errors[2]:.3e}  "
                    f"orders {est.order_coarse:.3f}, {est.order_fine:.3f}")
        entries.append(("order_mean_above_1.8", est.mean - 1.8, est.mean >= 1.8))
        entries.append(("errors_monotone", 1.0 if est.monotone else 0.0, est.monotone))
    ok = fieldio.write_summary(os.path.join(cfg.out, "summary.txt"), entries)
    return EXIT_OK if (ok and max(codes) == EXIT_OK) else max(max(codes), EXIT_CHECK)


def cmd_compare(cfg: Config, quiet: bool) -> int:
    u0 = _initial_velocity(cfg, Grid(cfg.grid))
    run_a = _FieldRun(replace(cfg, route="decomposed", out=os.path.join(cfg.out, "route_a")))
    run_b = _FieldRun(replace(cfg, route="direct", out=os.path.join(cfg.out, "route_b")))
    rows = []
    # Lockstep; a route that fails yields None from then on while the other goes on.
    for sa, sb in zip_longest(run_a.states(u0), run_b.states(u0)):
        if sa is not None and sb is not None:
            gap = face_norm(sa.u - sb.u)
            ref = max(face_norm(sa.u), TINY)
            rows.append((sa.time, {"gap_l2": gap, "gap_rel": gap / ref}))
    code_a, code_b = run_a.finish(), run_b.finish()
    fieldio.ensure_dir(cfg.out)
    if rows:
        fieldio.write_csv(os.path.join(cfg.out, "compare.csv"), rows)
    both_ok = max(code_a, code_b) == EXIT_OK
    entries = [("routes_completed", 1.0 if both_ok else 0.0, both_ok)]
    if rows and both_ok:
        final_rel = rows[-1][1]["gap_rel"]
        _say(quiet, f"route gap at T: {rows[-1][1]['gap_l2']:.3e} "
                    f"(relative {final_rel:.3e})")
        entries.append(("route_gap_rel_sane", 1.0 - final_rel, final_rel <= 1.0))
    ok = fieldio.write_summary(os.path.join(cfg.out, "summary.txt"), entries)
    codes = [code_a, code_b, EXIT_OK if ok else EXIT_CHECK]
    return max(codes)


def cmd_stability(cfg: Config, quiet: bool) -> int:
    grid = Grid(cfg.grid)
    base_u0 = _initial_velocity(cfg, grid)
    direction = scenarios.perturbation_field(grid)
    labels = ["base"] + [f"eps_{i}" for i in range(len(_STABILITY_EPS))]
    fields = [base_u0] + [base_u0 + direction * e for e in _STABILITY_EPS]
    codes, finals = [], []
    for label, u0 in zip(labels, fields):
        run = _run_field(replace(cfg, out=os.path.join(cfg.out, label)), u0)
        codes.append(run.code)
        finals.append(run.final)
    entries = [("runs_completed", 1.0 if max(codes) == EXIT_OK else 0.0,
                max(codes) == EXIT_OK)]
    fieldio.ensure_dir(cfg.out)
    if max(codes) == EXIT_OK:
        ratios = [face_norm(s.u - finals[0].u) / eps
                  for eps, s in zip(_STABILITY_EPS, finals[1:])]
        fieldio.write_csv(os.path.join(cfg.out, "ratios.csv"),
                          [(e, {"gap_ratio": r})
                           for e, r in zip(_STABILITY_EPS, ratios)])
        spread = max(ratios) / min(ratios) - 1.0 if min(ratios) > 0.0 else float("inf")
        _say(quiet, "gap ratios " + ", ".join(f"{r:.6f}" for r in ratios)
                    + f"  spread {spread:.3%}")
        entries.append(("ratio_spread_within_10pct", 0.10 - spread, spread <= 0.10))
    ok = fieldio.write_summary(os.path.join(cfg.out, "summary.txt"), entries)
    return EXIT_OK if (ok and max(codes) == EXIT_OK) else max(max(codes), EXIT_CHECK)


def cmd_basis(cfg: Config, quiet: bool) -> int:
    basis = _build_basis_checked(Grid(cfg.grid), cfg.modes)
    fieldio.ensure_dir(cfg.out)
    galerkin.save_basis(basis, cfg.out)
    gram_dev = basis.gram_deviation
    div_max = max(float(np.abs(divergence(w).values).max()) for w in basis.modes)
    wall_max = max(normal_trace(w).max_abs() for w in basis.modes)
    _say(quiet, "eigenvalues: " + ", ".join(f"{v:.6g}" for v in basis.lam))
    entries = [
        ("gram_deviation", GRAM_TOL - gram_dev, gram_dev <= GRAM_TOL),
        ("mode_divergence", DIV_CEILING - div_max, div_max <= DIV_CEILING),
        ("mode_wall_flux", DIV_CEILING - wall_max, wall_max <= DIV_CEILING),
    ]
    ok = fieldio.write_summary(os.path.join(cfg.out, "summary.txt"), entries)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_heat(cfg: Config, quiet: bool) -> int:
    if cfg.nsteps < 10:
        raise ConfigError("heat study needs at least 10 steps for the rate fit")
    grid = Grid(cfg.grid)
    bc = "neumann" if cfg.system == "jl" else "dirichlet"
    g0 = scenarios.eigen_divergence(grid, cfg.system, cfg.ic_eps, cfg.ic_mode)
    estimates = HeatEstimates()
    rows = []
    for final in scenarios.march(heat_step, divergence_state(g0, bc, cfg.nu), cfg.dt, cfg.nsteps):
        rows.append((final.time, norms(final.g, final.time).metrics))
        estimates.add(final)
    fieldio.ensure_dir(cfg.out)
    fieldio.write_csv(os.path.join(cfg.out, "diagnostics.csv"), rows)
    fieldio.write_scalar(os.path.join(cfg.out, "final_g.ensf"), final.g, final.time)
    times = [t for t, _ in rows]
    values = [m["l2"] for _, m in rows]
    rate = fit_decay_rate(times, values)
    analytic = -2.0 * cfg.nu * (cfg.ic_mode * math.pi) ** 2
    rel = abs(rate / analytic - 1.0)
    _say(quiet, f"fitted decay rate {rate:.6f} vs analytic {analytic:.6f} "
                f"(relative gap {rel:.2e})")
    rec = estimates.record()
    g0_norm = rec["initial_l2"]
    entries = [
        ("decay_rate_within_1pct", 0.01 - rel, rel <= 0.01),
        ("sup_estimate", rec["sup_margin"], passes(rec["sup_margin"], g0_norm)),
        ("grad_estimate", rec["grad_margin"], passes(rec["grad_margin"], g0_norm)),
    ]
    ok = fieldio.write_summary(os.path.join(cfg.out, "summary.txt"), entries)
    return EXIT_OK if ok else EXIT_CHECK


def cmd_decompose(cfg: Config, quiet: bool) -> int:
    dec = decompose(_initial_velocity(cfg, Grid(cfg.grid)))
    fieldio.ensure_dir(cfg.out)
    fieldio.write_vector(os.path.join(cfg.out, "part_v"), dec.v, 0.0)
    fieldio.write_vector(os.path.join(cfg.out, "part_z"), dec.z, 0.0)
    fieldio.write_scalar(os.path.join(cfg.out, "pressure_q.ensf"), dec.q, 0.0)
    m = dec.record  # measured once, by the validation inside decompose
    div_v, ortho, rec_err = m["div_v_l2"], m["grad_orthogonality"], m["reconstruction"]
    rows = [(0.0, {"v_l2": face_norm(dec.v), "z_l2": face_norm(dec.z),
                   "v_h1_semi": m["v_h1_semi"], "z_h1_semi": m["z_h1_semi"],
                   "div_v_l2": div_v, "grad_orthogonality": ortho})]
    fieldio.write_csv(os.path.join(cfg.out, "diagnostics.csv"), rows)
    _say(quiet, f"split: |v| {face_norm(dec.v):.6f}, |z| {face_norm(dec.z):.6f}, "
                f"gradient pairing {ortho:.2e}")
    div_bound = SPLIT_TOL * m["div_scale"]
    ortho_bound = SPLIT_TOL * m["orthogonality_scale"]
    rec_bound = RECONSTRUCT_TOL * m["reconstruction_scale"]
    entries = [
        ("div_v_ceiling", div_bound - div_v, div_v <= div_bound),
        ("grad_orthogonality", ortho_bound - abs(ortho), abs(ortho) <= ortho_bound),
        ("reconstruction", rec_bound - rec_err, rec_err <= rec_bound),
    ]
    ok = fieldio.write_summary(os.path.join(cfg.out, "summary.txt"), entries)
    return EXIT_OK if ok else EXIT_CHECK


_DISPATCH = {
    "run": cmd_run,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
    "stability": cmd_stability,
    "basis": cmd_basis,
    "heat": cmd_heat,
    "decompose": cmd_decompose,
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, matching config errors."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="enslab",
        description="Numerical laboratory for incompressible flow with "
                    "relaxed divergence constraints on the unit square.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to a key = value config file")
    common.add_argument("--out", default=None, help="output directory (overrides config)")
    common.add_argument("--seed", type=int, default=None, help="seed override (u64)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "run": "integrate one configured system and write diagnostics",
        "convergence": "manufactured-solution spatial-order study over three grids",
        "compare": "integrate both routes of a system and report their gap",
        "stability": "perturbation-growth ratios for a family of amplitudes",
        "basis": "build and cache the spectral velocity basis",
        "heat": "evolve divergence data under the heat oracle alone",
        "decompose": "one-shot orthogonal splitting of the initial velocity",
    }
    for name, text in helps.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_thread_setting()
        cfg = load_config(args.config, out=args.out, seed=args.seed)
        return _DISPATCH[args.command](cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
