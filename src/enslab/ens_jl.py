"""No-slip extended flow system: two independent stepping routes.

The system evolves a velocity with zero wall faces whose divergence obeys a
Neumann heat equation instead of vanishing.  Route one ("decomposed") mirrors
the constructive splitting: advance the divergence by the heat oracle, lift it
to a velocity by the Stokes lifting, and advance the remaining divergence-free
part by a projected perturbed-flow step.  Route two ("direct") advances the
velocity itself with a backward-Euler implicit treatment of both the viscous
term and the divergence-gradient term, splitting the field into its projected
part and the gradient potential that carries the divergence.

EnergyLedger certifies, per step, the exact discrete ledger

    (||v+||^2 - ||v||^2) / (2 dt) + nu * ||grad vbar||^2  =  pairing terms

and accumulates a Gronwall-style envelope from measured per-step constants;
every inequality used in the envelope holds for the measured quantities, so
the envelope is a true bound for the computed trajectory, not a fit.

The steppers map one state to the next; a run is
scenarios.march(step_decomposed, jl_state(u, nu), dt, nsteps), which yields
the states one at a time, and the EnergyLedger folds them pair by pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .advection import skew_advect
from .diagnostics import TINY, DiagnosticsRecord
from .errors import CheckFailure
from .grid import (
    ScalarField,
    VectorField,
    divergence,
    face_inner,
    grad_inner,
    gradient,
    laplacian_neumann,
    normal_trace,
    scalar_norm,
    vector_laplacian,
)
from .heat_oracle import DivergenceState, divergence_state, heat_step
from .linsolve import generalized_stokes, heat_solver, neumann_poisson
from .reference import (
    ForcingSpec,
    cfl_check,
    perturbed_heun_step,
    poincare_constant,
)
from .stokes_lift import check_finite, check_state, decompose, leray_project, lift_or_zero, wall_floor

__all__ = [
    "JLState",
    "ForcingSpec",
    "jl_state",
    "step_decomposed",
    "step_direct",
    "EnergyLedger",
    "coercivity_probe",
    "stokes_pressure",
    "check_stokes_pressure",
]

@dataclass(frozen=True)
class JLState:
    """Velocity with heat-evolving divergence under no-slip walls.

    The decomposition cache (v, z) is maintained by the decomposed route:
    v is the divergence-free part, z the Stokes lifting of g.
    Direct-route states carry no cache.  ``div_u`` is taken once, when the
    state is checked, and read by the steppers and diagnostics.
    """

    time: float
    u: VectorField
    g: DivergenceState
    nu: float
    forcing: ForcingSpec
    v: VectorField | None = None
    z: VectorField | None = None

    def __post_init__(self) -> None:
        check_state(self, "neumann", self.div_u - self.g.g)
        walls = normal_trace(self.u).max_abs()
        if walls > wall_floor(self.u):
            raise CheckFailure(f"wall-normal faces must vanish (max {walls:.3e})")

    @cached_property
    def div_u(self) -> ScalarField:
        return divergence(self.u)

    @property
    def decomposed(self) -> bool:
        return self.v is not None


def jl_state(u: VectorField, nu: float, forcing: ForcingSpec | None = None,
             time: float = 0.0, decomposed: bool = True) -> JLState:
    """Build a consistent state from a velocity field with zero wall faces."""
    forcing = forcing if forcing is not None else ForcingSpec.zero()
    g = divergence_state(divergence(u), "neumann", nu, time=time)
    if not decomposed:
        return JLState(time, u, g, nu, forcing)
    dec = decompose(u, time)
    return JLState(time, u, g, nu, forcing, dec.v, dec.z)


def step_decomposed(s: JLState, dt: float) -> JLState:
    """One step of the constructive route: heat oracle, lift, projected flow.

    The divergence-free part is advanced by a trapezoidal-viscosity step with
    midpoint-averaged transport, solved on the projected operator, so the
    per-step energy ledger closes to O(dt^2).
    """
    if not s.decomposed:
        raise ValueError("decomposed route requires the decomposition cache; "
                         "build the state with jl_state(u, nu, ...)")
    cfl_check(s.u, dt)
    gp = heat_step(s.g, dt)
    zp = lift_or_zero(gp.g, s.u)
    f_mid = s.forcing.evaluate(s.u.grid, s.time + 0.5 * dt)
    vp = perturbed_heun_step(s.v, s.z, zp, dt, s.nu, f_mid, s.time + dt)
    return JLState(s.time + dt, vp + zp, gp, s.nu, s.forcing, vp, zp)


def step_direct(s: JLState, dt: float) -> JLState:
    """One step of the direct route: implicit viscosity and divergence gradient.

    The momentum equation is split along the projection: the divergence rides
    a backward-Euler Neumann heat step (taking the divergence of the update
    gives exactly that), its gradient potential is reconstructed, and the
    projected part sees explicit transport with implicit projected viscosity.
    The pressure-potential content of the update equals the backward-Euler
    value of the gradient part; the recovered potential itself is available
    through stokes_pressure().
    """
    cfl_check(s.u, dt)
    grid = s.u.grid
    u = s.u
    a = skew_advect(u, u)
    f = s.forcing.evaluate(grid, s.time)
    du = s.div_u
    gp_vals = heat_solver(grid, s.nu * dt, "neumann", theta="be")(du.values)
    gp_field = ScalarField(grid, gp_vals)
    phi = neumann_poisson(grid).solve(gp_field)
    gphi = gradient(phi)
    lap_gphi = vector_laplacian(gphi, "noslip")
    rhs = u + (f - a) * dt + lap_gphi * (s.nu * dt)
    # the Stokes solve refuses non-finite data as a solver fault; a blown-up
    # update is the next state's fault, judged as its check judges u
    check_finite(s.time + dt, velocity=rhs)
    y, _, _ = generalized_stokes(grid, 1.0, s.nu * dt).solve(rhs, pressure=False)
    gp = DivergenceState(gp_field, s.time + dt, "neumann", s.nu, s.g.m0)
    return JLState(s.time + dt, y + gphi, gp, s.nu, s.forcing)


class EnergyLedger:
    """Per-step energy ledger and a measured-constant Gronwall envelope.

    add() decomposed-route states in time order, then record().  For each
    step the exact identity

        (E+ - E)/(2 dt) + nu ||grad vbar||^2
            = <f - dz, vbar> - <skew_advect(vbar + zbar, zbar), vbar> + imbalance

    is evaluated with vbar, zbar the endpoint averages; the advection pairing
    is the sum of the zz, vz and zv pairings, the last of which vanishes by
    antisymmetry.  The imbalance is the time-quadrature defect of the
    scheme, O(dt^2); a non-finite pairing is a CheckFailure naming the time.
    The envelope recursion

        B+ = (B (1 + dt c) + dt Q) / (1 - dt c),
        c = |advection pairings| / ||vbar||^2,
        Q = ||f - dz||^2 / (nu lambda_P) + 2 |imbalance|

    uses only measured quantities and a proven lower bound lambda_P for the
    gradient energy, so energies satisfy E_n <= B_n exactly (up to round-off
    of the recursion itself).

    add() holds only the previous state and keeps a few scalars per step;
    record() runs the envelope recursion over them after the last step, so
    the Poincare constant is computed only then.
    """

    def __init__(self) -> None:
        self._prev: JLState | None = None
        self._energies: list[float] = []
        self._steps: list[tuple[float, ...]] = []  # dt, imbalance, c, |fhat|^2, diss, |grad zbar|^2

    @np.errstate(over="ignore", invalid="ignore")  # the pairings are judged below
    def add(self, s1: JLState) -> None:
        if not s1.decomposed:
            raise ValueError("energy check requires the decomposed-route cache")
        s0, self._prev = self._prev, s1
        self._energies.append(face_inner(s1.v, s1.v))
        if s0 is None:
            return
        dt = s1.time - s0.time
        if not (dt > 0.0):
            raise ValueError("history times must increase")
        vbar = (s0.v + s1.v) * 0.5
        zbar = (s0.z + s1.z) * 0.5
        dz = (s1.z - s0.z) * (1.0 / dt)
        fhat = s0.forcing.evaluate(s0.u.grid, s0.time + 0.5 * dt) - dz
        e0, e1 = self._energies[-2:]
        diss = grad_inner(vbar, vbar)
        lhs = (e1 - e0) / (2.0 * dt) + s0.nu * diss
        # the zz and vz pairings in one call (linear in the first slot); the
        # zv pairing <S(zbar, vbar), vbar> vanishes by antisymmetry
        adv = face_inner(skew_advect(vbar + zbar, zbar), vbar)
        rhs = face_inner(fhat, vbar) - adv
        ebar = face_inner(vbar, vbar)
        c = abs(adv) / ebar if ebar > 0.0 else 0.0
        step = (dt, lhs - rhs, c, face_inner(fhat, fhat), diss, grad_inner(zbar, zbar))
        if not all(map(math.isfinite, step)):
            raise CheckFailure(f"non-finite energy ledger pairing at t = {s1.time:.6g}")
        self._steps.append(step)

    def record(self) -> DiagnosticsRecord:
        energies, steps = self._energies, self._steps
        if len(energies) < 2:
            raise ValueError("need at least two states to check the ledger")
        nu = self._prev.nu
        lam = poincare_constant(self._prev.u.grid)
        envelope = [energies[0]]
        dissipation = forcing_integral = gradz_integral = 0.0
        for dt, d, c, fh2, diss, gradz in steps:
            if dt * c >= 1.0:
                raise CheckFailure(
                    f"measured advection constant {c:.3e} too large for dt {dt:.3e}; "
                    "the envelope recursion cannot certify this step")
            q = fh2 / (nu * lam) + 2.0 * abs(d)
            envelope.append((envelope[-1] * (1.0 + dt * c) + dt * q) / (1.0 - dt * c))
            dissipation += dt * nu * diss
            forcing_integral += dt * fh2
            gradz_integral += dt * gradz
        metrics = {
            "energy_initial": energies[0],
            "energy_final": energies[-1],
            "dissipation_integral": dissipation,
            "envelope_final": envelope[-1],
            "envelope_margin_min": min(b - e for b, e in zip(envelope, energies)),
            "imbalance_max": max(abs(st[1]) for st in steps),
            "ledger_margin_min": min(-st[1] for st in steps),
            "advection_constant_max": max([0.0] + [st[2] for st in steps]),
            "forcing_integral": forcing_integral,
            "gradz_integral": gradz_integral,
            "energy_increase_max": max([0.0] + [math.sqrt(b) - math.sqrt(a)
                                                for a, b in zip(energies, energies[1:])]),
        }
        return DiagnosticsRecord(self._prev.time, metrics, "ens_jl.EnergyLedger")


def coercivity_probe(u: VectorField) -> DiagnosticsRecord:
    """Evaluate the quadratic-form remainder that breaks zero-wall coercivity.

    remainder(u) = -<u, P Lap u + grad div u> - ||grad Pu||^2 - ||div u||^2.

    For divergence-free u the remainder vanishes; in general it equals the
    gradient-pairing between the projected part and the potential part, whose
    sign is indefinite.
    """
    walls = normal_trace(u).max_abs()
    if walls > wall_floor(u):
        raise ValueError(f"probe requires zero wall faces (max {walls:.3e})")
    pu = leray_project(u)
    du = divergence(u)
    lap = vector_laplacian(u, "noslip")
    quad = -face_inner(u, leray_project(lap) + gradient(du))
    remainder = quad - grad_inner(pu, pu) - scalar_norm(du) ** 2
    scale = max(grad_inner(u, u), TINY)
    metrics = {
        "remainder": remainder,
        "relative": remainder / scale,
        "sign": float(np.sign(remainder)),
        "gradient_energy": grad_inner(u, u),
    }
    return DiagnosticsRecord(0.0, metrics, "ens_jl.coercivity_probe")


def stokes_pressure(u: VectorField) -> ScalarField:
    """Mean-zero potential of the non-projected part of (Lap u - grad div u).

    Its gradient is the complement-of-projection of the extended viscous
    term; taking the divergence of that term and inverting the Neumann
    Laplacian recovers the potential directly.
    """
    walls = normal_trace(u).max_abs()
    if walls > wall_floor(u):
        raise ValueError(f"pressure recovery requires zero wall faces (max {walls:.3e})")
    w = vector_laplacian(u, "noslip") - gradient(divergence(u))
    return neumann_poisson(u.grid).solve(divergence(w))


def check_stokes_pressure(u: VectorField) -> DiagnosticsRecord:
    """Interior harmonicity of the recovered pressure potential.

    The cell Laplacian of the potential reproduces its construction data
    everywhere; the harmonicity content lives on interior cells, where the
    data is a genuine commutator.  Wall-adjacent cells carry O(1/h) flux data
    by construction and are reported separately, not asserted against.
    """
    p = stokes_pressure(u)
    lap = laplacian_neumann(p)
    grid = u.grid
    full = scalar_norm(lap)
    interior = grid.h * float(np.linalg.norm(lap.values[1:-1, 1:-1]))
    metrics = {
        "residual_interior": interior,
        "residual_full": full,
        "relative": interior / max(full, TINY),
    }
    return DiagnosticsRecord(0.0, metrics, "ens_jl.check_stokes_pressure")
