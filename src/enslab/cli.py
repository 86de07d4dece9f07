"""Command-line drivers: runs, studies, and all artifact writing.

Every subcommand reads one config file, writes artifacts under the output
directory (per-step CSV, final field dumps, a margin summary), and maps
failures to exit codes: 1 config, 2 solver (including step-size guards),
3 check failure.  Config errors are raised before any directory is made.
Every run and study then opens its directory (_open): it removes the
artifacts an earlier one left and writes a failing summary, which only its
verdict (_verdict) overwrites, so whatever ends it early leaves no stale
verdict or artifact.  A check failure still writes the artifacts made.

Every run (field routes, Galerkin, heat) is one _Run: it folds each state
as it comes into diagnostics rows, so only the current state is held (the
Galerkin route keeps its trajectory for the energy ledger).  Studies run
their sub-runs one after another; compare steps its two routes in lockstep
in one thread.
"""

from __future__ import annotations

import argparse
import fnmatch
import functools
import math
import os
import sys
from dataclasses import replace
from itertools import islice, zip_longest

import numpy as np

from . import ens_jl, ens_sr, fieldio, galerkin, scenarios
from .config import Config, ConfigError, load_config
from .diagnostics import (
    DIV_CEILING, GAP_DECAY_TOL, GRAM_TOL, LEDGER_RATE_TOL, RECONSTRUCT_TOL, SPLIT_TOL,
    TINY, WALL_FOLLOW_RUN_TOL, convergence_order, fit_decay_rate, norms, passes,
)
from .errors import CheckFailure, SolverError
from .grid import (
    Grid, VectorField, divergence, face_norm, grad_inner, normal_trace, scalar_norm,
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


def _check_failure(exc: CheckFailure) -> str:
    """The one form of a check failure's message."""
    return f"check failure: {exc}"


def _initial_velocity(cfg: Config, grid: Grid):
    return scenarios.initial_velocity(
        grid, cfg.system, cfg.ic, eps=cfg.ic_eps, mode=cfg.ic_mode,
        amplitude=cfg.ic_amplitude, seed=cfg.seed)


@np.errstate(over="ignore")  # a row may overflow to inf; cfl_check and the margins judge it
def _field_metrics(cfg: Config, state) -> dict:
    u, div = state.u, state.div_u
    m = {
        "u_l2": state.u_l2,
        "energy": 0.5 * state.u_l2 ** 2,
        "div_l2": scalar_norm(div),
        "div_linf": float(np.abs(div.values).max()),
        "g_l2": state.g_l2,
    }
    if cfg.system == "jl":
        m["u_h1_semi"] = math.sqrt(max(grad_inner(u, u), 0.0))
    else:
        m["wall_gap_linf"] = state.wall_gap
        m["solvability_gap"] = ens_sr.solvability_gap(state.g, state.h)
        m["h_linf"] = state.h.max_abs()
    if state.decomposed:
        m["v_l2"] = face_norm(state.v)
        m["z_l2"] = face_norm(state.z)
    return m


_INITIAL = "initial state, t = 0"


def _field_states(cfg: Config, initial=None):
    """The configured route's states from the velocity initial() (by default
    the configured one): the initial state, then one per step.  Steppers are
    looked up on their modules at each call, so rebound attributes are used."""
    decomposed = cfg.route == "decomposed"
    with scenarios.located(_INITIAL):
        u0 = _initial_velocity(cfg, Grid(cfg.grid)) if initial is None else initial()
        forcing = scenarios.forcing_field(u0.grid, cfg.forcing, cfg.forcing_amplitude, cfg.nu)
        if cfg.system == "jl":
            state = ens_jl.jl_state(u0, cfg.nu, forcing, decomposed=decomposed)
            step = ens_jl.step_decomposed if decomposed else ens_jl.step_direct
        else:
            state = ens_sr.sr_state(u0, cfg.lam, cfg.nu, forcing, decomposed=decomposed)
            step = ens_sr.step_constructive if decomposed else ens_sr.step_direct_sr
    return scenarios.march(step, state, cfg.dt, cfg.nsteps)


def _field_margins(run: "_FieldRun") -> list:
    cfg, rows = run.cfg, run.rows
    entries = [run.completed]
    if not rows:
        return entries
    if cfg.ic in _DIV_FREE_PRESETS:
        worst = max(m["div_linf"] for _, m in rows)
        entries.append(("divergence_ceiling", DIV_CEILING - worst, worst <= DIV_CEILING))
    if run.ledger is not None and not run.failure and len(rows) >= 2:
        try:
            rec = run.ledger.record()
        except CheckFailure as exc:
            print(_check_failure(exc), file=sys.stderr)
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


_RUN_ARTIFACTS = ("diagnostics.csv", "final_u.u.ensf", "final_u.v.ensf", "final_g.ensf")


def _open(out_dir: str, names, margin: str = "run_completed") -> None:
    """Open out_dir for a run or study: the artifacts that an earlier one
    left there (the files that ``names``, names or shell patterns, match) go,
    and a failing summary stands until the verdict overwrites it, so nothing
    that ends the run early leaves a stale verdict or artifact."""
    fieldio.ensure_dir(out_dir)
    for name in os.listdir(out_dir):
        if any(fnmatch.fnmatchcase(name, pattern) for pattern in names):
            os.remove(os.path.join(out_dir, name))
    fieldio.write_summary(os.path.join(out_dir, "summary.txt"), [(margin, 0.0, False)])


def _verdict(out_dir: str, entries, codes=()) -> int:
    """Write the summary; the exit code is the worst of its own and ``codes``."""
    ok = fieldio.write_summary(os.path.join(out_dir, "summary.txt"), entries)
    return max([EXIT_OK if ok else EXIT_CHECK, *codes])


class _Run:
    """One run, folded a state at a time into diagnostics rows.

    ``source()`` builds the states, the initial one first; ``measure(state)``
    gives each one's row.  Holds the final state, not the history, and drops
    the source once called, with whatever it held.  The output directory is
    opened (see _open) at construction.  Solver errors propagate; a
    CheckFailure ends the stepping and is kept, so that write() still writes
    the artifacts.
    """

    def __init__(self, out: str, measure, source):
        self.out, self.measure, self.source = out, measure, source
        self.rows, self.final, self.failure = [], None, None
        _open(out, _RUN_ARTIFACTS)

    def states(self):
        """Yield each state as it is stepped, after folding it in."""
        try:
            states, self.source = self.source(), None
            for state in states:
                self.rows.append((state.time, self.measure(state)))
                self.final = state
                yield state
        except CheckFailure as exc:
            self.failure = _check_failure(exc)

    def run(self) -> "_Run":
        """Fold every state."""
        for _ in self.states():
            pass
        return self

    @property
    def completed(self) -> tuple:
        return ("run_completed", 0.0 if self.failure else 1.0, self.failure is None)

    def write(self, entries, fields) -> int:
        """Write diagnostics.csv, the fields (name, field) that fields(final)
        lists, and the summary of entries, which hold ``completed`` when the
        run failed; returns the exit code."""
        if self.rows:
            fieldio.write_csv(os.path.join(self.out, "diagnostics.csv"), self.rows)
        for name, f in () if self.final is None else fields(self.final):
            write = fieldio.write_vector if isinstance(f, VectorField) else fieldio.write_scalar
            write(os.path.join(self.out, name), f, self.final.time)
        if self.failure:
            print(self.failure, file=sys.stderr)
        return _verdict(self.out, entries)


class _FieldRun(_Run):
    """A field run from the velocity initial(), built in the fold (see
    _field_states); on jl decomposed it also folds the energy ledger."""

    def __init__(self, cfg: Config, initial=None):
        if cfg.route not in ("decomposed", "direct"):
            raise ConfigError(f"route = {cfg.route} is not a field route; "
                              "use route = decomposed or direct")
        self.cfg = cfg
        jl_decomposed = cfg.system == "jl" and cfg.route == "decomposed"
        ledger = self.ledger = ens_jl.EnergyLedger() if jl_decomposed else None

        def measure(state) -> dict:  # not a bound method: no cycle keeps the run
            if ledger is not None:
                ledger.add(state)
            return _field_metrics(cfg, state)

        super().__init__(cfg.out, measure, lambda: _field_states(cfg, initial))

    def finish(self) -> int:
        """Write the margins and artifacts; returns the exit code."""
        return self.write(_field_margins(self),
                          lambda s: [("final_u", s.u), ("final_g.ensf", s.g.g)])


def _build_basis_checked(grid: Grid, modes: int):
    try:
        return galerkin.build_basis(grid, modes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_galerkin(cfg: Config) -> int:
    grid = Grid(cfg.grid)
    basis = _build_basis_checked(grid, cfg.modes)
    trajectory, forcing = [], None

    @np.errstate(over="ignore")  # a row may overflow to inf; the ledger judges the run
    def measure(s) -> dict:
        coeff_l2 = math.sqrt(float(s.coeffs @ s.coeffs))
        return {"coeff_l2": coeff_l2, "energy": 0.5 * coeff_l2 ** 2,
                "grad_energy": float(basis.lam @ (s.coeffs * s.coeffs))}

    def states():
        # integrate_galerkin runs every step in one call; its first state is start
        nonlocal trajectory, forcing
        with scenarios.located(_INITIAL):
            start = galerkin.project_onto_basis(basis, _initial_velocity(cfg, grid))
            if cfg.forcing != "zero":
                forcing = scenarios.forcing_field(grid, cfg.forcing, cfg.forcing_amplitude, cfg.nu)
        yield start
        trajectory = galerkin.integrate_galerkin(basis, start, cfg.nu, cfg.dt, cfg.nsteps, forcing)
        yield from islice(trajectory, 1, None)

    run = _Run(cfg.out, measure, states).run()
    entries = [run.completed]
    if not run.failure and len(trajectory) >= 3:
        try:
            rec = galerkin.galerkin_energy_ledger(basis, trajectory, cfg.nu, cfg.dt, forcing)
        except CheckFailure as exc:
            print(_check_failure(exc), file=sys.stderr)
            entries.append(("ledger_rate", -math.inf, False))
        else:
            rate = rec["imbalance_rate_max"]
            entries.append(("ledger_rate", LEDGER_RATE_TOL - rate, rate <= LEDGER_RATE_TOL))
        if cfg.forcing == "zero":
            energies = [m["energy"] for _, m in run.rows]
            worst_rise = max(b - a for a, b in zip(energies, energies[1:]))
            entries.append(("energy_monotone", -worst_rise, passes(-worst_rise, energies[0])))
    return run.write(entries, lambda s: [("final_u", galerkin.reconstruct(basis, s))])


def cmd_run(cfg: Config, quiet: bool) -> int:
    _say(quiet, f"run: system={cfg.system} route={cfg.route} grid={cfg.grid} "
                f"nu={cfg.nu:g} dt={cfg.dt:g} steps={cfg.nsteps}")
    code = _run_galerkin(cfg) if cfg.route == "galerkin" else _FieldRun(cfg).run().finish()
    _say(quiet, f"artifacts in {cfg.out} ({'PASS' if code == EXIT_OK else 'FAIL'})")
    return code


def cmd_convergence(cfg: Config, quiet: bool) -> int:
    if cfg.ic != "mms" or cfg.forcing != "mms":
        raise ConfigError("convergence study needs ic = mms and forcing = mms "
                          "(exact steady reference)")
    if cfg.grid > 64:
        raise ConfigError("convergence study refines twice; grid must be <= 64")
    grids = [cfg.grid, cfg.grid * 2, cfg.grid * 4]
    runs = [_FieldRun(replace(cfg, grid=n, dt=cfg.dt * cfg.grid / n,
                              out=os.path.join(cfg.out, f"grid_{n:03d}"))) for n in grids]
    _open(cfg.out, ("errors.csv",), "runs_completed")
    codes = [run.run().finish() for run in runs]
    errors = [float("nan") if run.failure
              else face_norm(run.final.u - scenarios.mms_velocity(run.final.u.grid))
              for run in runs]
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
    return _verdict(cfg.out, entries, codes)


def cmd_compare(cfg: Config, quiet: bool) -> int:
    u0 = functools.cache(lambda: _initial_velocity(cfg, Grid(cfg.grid)))
    run_a = _FieldRun(replace(cfg, route="decomposed", out=os.path.join(cfg.out, "route_a")), u0)
    run_b = _FieldRun(replace(cfg, route="direct", out=os.path.join(cfg.out, "route_b")), u0)
    del u0  # built in route a's fold, freed once both initial states are built
    _open(cfg.out, ("compare.csv",), "routes_completed")
    rows = []
    # Lockstep; a route that fails a check, its initial state included,
    # yields None from then on while the other goes on.  A solver error ends
    # both.
    for sa, sb in zip_longest(run_a.states(), run_b.states()):
        if sa is not None and sb is not None:
            gap = face_norm(sa.u - sb.u)
            ref = max(sa.u_l2, TINY)
            rows.append((sa.time, {"gap_l2": gap, "gap_rel": gap / ref}))
    codes = [run_a.finish(), run_b.finish()]
    if rows:
        fieldio.write_csv(os.path.join(cfg.out, "compare.csv"), rows)
    both_ok = max(codes) == EXIT_OK
    entries = [("routes_completed", 1.0 if both_ok else 0.0, both_ok)]
    if rows and both_ok:
        final_rel = rows[-1][1]["gap_rel"]
        _say(quiet, f"route gap at T: {rows[-1][1]['gap_l2']:.3e} "
                    f"(relative {final_rel:.3e})")
        entries.append(("route_gap_rel_sane", 1.0 - final_rel, final_rel <= 1.0))
    return _verdict(cfg.out, entries, codes)


def cmd_stability(cfg: Config, quiet: bool) -> int:
    grid = Grid(cfg.grid)
    # the velocities are built in the sub-runs' folds, after every _open
    base = functools.cache(lambda: _initial_velocity(cfg, grid))
    direction = scenarios.perturbation_field(grid)
    fields = [base] + [lambda e=e: base() + direction * e for e in _STABILITY_EPS]
    labels = ["base"] + [f"eps_{i}" for i in range(len(_STABILITY_EPS))]
    runs = [_FieldRun(replace(cfg, out=os.path.join(cfg.out, label)), initial)
            for label, initial in zip(labels, fields)]
    _open(cfg.out, ("ratios.csv",), "runs_completed")
    codes = [run.run().finish() for run in runs]
    entries = [("runs_completed", 1.0 if max(codes) == EXIT_OK else 0.0,
                max(codes) == EXIT_OK)]
    if max(codes) == EXIT_OK:
        base = runs[0].final.u
        ratios = [face_norm(run.final.u - base) / eps
                  for eps, run in zip(_STABILITY_EPS, runs[1:])]
        fieldio.write_csv(os.path.join(cfg.out, "ratios.csv"),
                          [(e, {"gap_ratio": r})
                           for e, r in zip(_STABILITY_EPS, ratios)])
        spread = max(ratios) / min(ratios) - 1.0 if min(ratios) > 0.0 else float("inf")
        _say(quiet, "gap ratios " + ", ".join(f"{r:.6f}" for r in ratios)
                    + f"  spread {spread:.3%}")
        entries.append(("ratio_spread_within_10pct", 0.10 - spread, spread <= 0.10))
    return _verdict(cfg.out, entries, codes)


def cmd_basis(cfg: Config, quiet: bool) -> int:
    basis = _build_basis_checked(Grid(cfg.grid), cfg.modes)
    _open(cfg.out, ("lambda.txt", "mode_*.ensf"))
    galerkin.save_basis(basis, cfg.out)
    gram_dev = basis.gram_deviation
    div_max = max(float(np.abs(divergence(w).values).max()) for w in basis.modes)
    wall_max = max(normal_trace(w).max_abs() for w in basis.modes)
    _say(quiet, "eigenvalues: " + ", ".join(f"{v:.6g}" for v in basis.lam))
    return _verdict(cfg.out, [
        ("gram_deviation", GRAM_TOL - gram_dev, gram_dev <= GRAM_TOL),
        ("mode_divergence", DIV_CEILING - div_max, div_max <= DIV_CEILING),
        ("mode_wall_flux", DIV_CEILING - wall_max, wall_max <= DIV_CEILING),
    ])


def cmd_heat(cfg: Config, quiet: bool) -> int:
    if cfg.nsteps < 10:
        raise ConfigError("heat study needs at least 10 steps for the rate fit")
    bc = "neumann" if cfg.system == "jl" else "dirichlet"
    estimates = HeatEstimates()

    def measure(s) -> dict:
        row = norms(s.g, s.time)
        estimates.add(s, row["l2"])
        return row

    def states():
        g0 = scenarios.eigen_divergence(Grid(cfg.grid), cfg.system, cfg.ic_eps, cfg.ic_mode)
        return scenarios.march(heat_step, divergence_state(g0, bc, cfg.nu), cfg.dt, cfg.nsteps)

    run = _Run(cfg.out, measure, states).run()
    entries = [run.completed]
    if not run.failure:
        times, l2 = [t for t, _ in run.rows], [m["l2"] for _, m in run.rows]
        vanished = next((t for t, n in zip(times, l2) if n == 0.0), None)
        if vanished is None:
            rate = fit_decay_rate(times, l2)
            analytic = -2.0 * cfg.nu * (cfg.ic_mode * math.pi) ** 2
            rel = abs(rate / analytic - 1.0)
            _say(quiet, f"fitted decay rate {rate:.7g} vs analytic {analytic:.7g} "
                        f"(relative gap {rel:.2e})")
        else:  # a norm of 0 has no logarithm to fit
            print(_check_failure(CheckFailure(
                f"||g|| = 0 at t = {vanished:.6g}: no decay rate to fit")), file=sys.stderr)
            rel = math.inf
        rec = estimates.record()
        g0_norm = rec["initial_l2"]
        entries = [
            ("decay_rate_within_1pct", 0.01 - rel, rel <= 0.01),
            ("sup_estimate", rec["sup_margin"], passes(rec["sup_margin"], g0_norm)),
            ("grad_estimate", rec["grad_margin"], passes(rec["grad_margin"], g0_norm)),
        ]
    return run.write(entries, lambda s: [("final_g.ensf", s.g)])


_SPLIT_ARTIFACTS = ("diagnostics.csv", "part_v.u.ensf", "part_v.v.ensf", "part_z.u.ensf",
                    "part_z.v.ensf", "pressure_q.ensf")


def cmd_decompose(cfg: Config, quiet: bool) -> int:
    _open(cfg.out, _SPLIT_ARTIFACTS)
    dec = decompose(_initial_velocity(cfg, Grid(cfg.grid)))
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
    return _verdict(cfg.out, [
        ("div_v_ceiling", div_bound - div_v, div_v <= div_bound),
        ("grad_orthogonality", ortho_bound - abs(ortho), abs(ortho) <= ortho_bound),
        ("reconstruction", rec_bound - rec_err, rec_err <= rec_bound),
    ])


_DISPATCH = {
    "run": cmd_run,
    "convergence": cmd_convergence,
    "compare": cmd_compare,
    "stability": cmd_stability,
    "basis": cmd_basis,
    "heat": cmd_heat,
    "decompose": cmd_decompose,
}


_HELPS = {
    "run": "integrate one configured system and write diagnostics",
    "convergence": "manufactured-solution spatial-order study over three grids",
    "compare": "integrate both routes of a system and report their gap",
    "stability": "perturbation-growth ratios for a family of amplitudes",
    "basis": "build, check and export the spectral velocity basis",
    "heat": "evolve divergence data under the heat oracle alone",
    "decompose": "one-shot orthogonal splitting of the initial velocity",
}


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit 1, matching config errors."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one command's options; every command takes the same four."""
    parser = _Parser(prog=f"enslab {name}", description=_HELPS[name])
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed override (u64)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, which lists the commands; main builds it only
    to print help or a usage error."""
    parser = _Parser(
        prog="enslab",
        description="Numerical laboratory for incompressible flow with "
                    "relaxed divergence constraints on the unit square.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _HELPS.items():
        sub.add_parser(name, help=text)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _DISPATCH:
        parser = build_parser()
        parser.parse_args(argv)                  # prints help or a usage error and exits
        parser.error("the command must be the first argument")
    command = argv[0]
    args = command_parser(command).parse_args(argv[1:])
    try:
        cfg = load_config(args.config, out=args.out, seed=args.seed)
        return _DISPATCH[command](cfg, args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except CheckFailure as exc:
        print(_check_failure(exc), file=sys.stderr)
        return EXIT_CHECK


if __name__ == "__main__":
    sys.exit(main())
