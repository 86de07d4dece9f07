"""No-slip extended flow system: two independent stepping routes.

The system evolves a velocity with zero wall faces whose divergence obeys a
Neumann heat equation instead of vanishing.  Route one ("decomposed") mirrors
the constructive splitting: advance the divergence by the heat oracle, lift it
to a velocity by the Stokes lifting, and advance the remaining divergence-free
part by a projected perturbed-flow step.  Route two ("direct") advances the
velocity itself by one generalized Stokes solve per step,

    (I - nu dt Lap) u+ + grad pi = u + dt (f - a),    div u+ = g+,

with no-slip walls, the transport a taken at the old velocity and g+ the
backward-Euler Neumann heat step of div u; pi is never formed.

EnergyLedger certifies, per step, the exact discrete ledger

    (||v+||^2 - ||v||^2) / (2 dt) + nu * ||grad vbar||^2  =  pairing terms

and accumulates a Gronwall-style envelope from measured per-step constants;
every inequality used in the envelope holds for the measured quantities, so
the envelope is a true bound for the computed trajectory, not a fit.

A run fixes nu, dt and the force in a reference.Flow p; a run is
scenarios.march(functools.partial(step_decomposed, p), jl_state(u), nsteps),
which yields the states one at a time, and EnergyLedger(p) folds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advection import skew_advect
from .errors import CheckFailure
from .grid import (
    ScalarField,
    VectorField,
    _adopt,
    divergence,
    face_inner,
    grad_inner,
    integral,
    normal_trace,
)
from .heat_oracle import check_mass, heat_step
from .linsolve import GeneralizedStokes, heat_solver
from .reference import Flow, cfl_check, perturbed_heun_step, poincare_constant
from .stokes_lift import (
    MeasuredState, check_finite, check_state, decompose, lift_or_zero, wall_floor,
)

__all__ = [
    "JLState",
    "jl_state",
    "step_decomposed",
    "step_direct",
    "EnergyLedger",
]

@dataclass(frozen=True)
class JLState(MeasuredState):
    """Velocity with heat-evolving divergence under no-slip walls.

    g is the divergence field that the Neumann heat equation advances and
    m0 its mass, frozen at t = 0, which that equation conserves.  The
    decomposition cache (v, z) is maintained by the decomposed route:
    v is the divergence-free part, z the Stokes lifting of g.
    Direct-route states carry no cache.  The state's measurements
    (``MeasuredState``) are taken once, when it is checked, and read by the
    steppers and diagnostics.
    """

    time: float
    u: VectorField
    g: ScalarField
    m0: float
    v: VectorField | None = None
    z: VectorField | None = None

    def __post_init__(self) -> None:
        check_mass(self.g, self.m0)
        check_state(self, "neumann")
        walls = normal_trace(self.u).max_abs()
        if walls > wall_floor(self.u):
            raise CheckFailure(f"wall-normal faces must vanish (max {walls:.3e})")

    @property
    def decomposed(self) -> bool:
        return self.v is not None


def jl_state(u: VectorField, decomposed: bool = True) -> JLState:
    """Build a consistent state at t = 0 from a velocity field with zero wall faces."""
    with np.errstate(over="ignore", invalid="ignore"):  # the lift or the state judges u
        g = divergence(u)
        m0 = integral(g)
    if not decomposed:
        return JLState(0.0, u, g, m0)
    dec = decompose(u)
    return JLState(0.0, u, g, m0, dec.v, dec.z)


def step_decomposed(p: Flow, s: JLState) -> JLState:
    """One step of the constructive route: heat oracle, lift, projected flow.

    The divergence-free part is advanced by a trapezoidal-viscosity step with
    midpoint-averaged transport, solved on the projected operator, so the
    per-step energy ledger closes to O(dt^2).
    """
    if not s.decomposed:
        raise ValueError("decomposed route requires the decomposition cache; "
                         "build the state with jl_state(u)")
    cfl_check(s.u, p.dt)
    gp = heat_step(s.g, p.solver(heat_solver, p.nu * p.dt, "neumann"))
    zp = lift_or_zero(gp, s.u)
    time = s.time + p.dt
    vp = perturbed_heun_step(p, s.v, s.z, zp, time)
    return JLState(time, vp + zp, gp, s.m0, vp, zp)


def step_direct(p: Flow, s: JLState) -> JLState:
    """One step of the direct route: one generalized Stokes solve.

    u+ solves (I - nu dt Lap) u+ + grad pi = u + dt (f - a), div u+ = g+
    with zero wall velocity, where a is the skew-symmetric transport of u,
    f the body force and g+ the backward-Euler Neumann heat
    step of div u; the pressure pi is not formed.
    """
    cfl_check(s.u, p.dt)
    grid, u, c, time = s.u.grid, s.u, p.nu * p.dt, s.time + p.dt
    gp = _adopt(ScalarField, grid, p.solver(heat_solver, c, "neumann", "be")(s.div_u.values))
    rhs = u + (p.forcing - skew_advect(u, u)) * p.dt
    # the Stokes solve refuses non-finite data as a solver fault; a blown-up
    # update is the next state's fault, judged as its check judges u
    check_finite(time, velocity=rhs)
    up = p.solver(GeneralizedStokes, 1.0, c).solve(rhs, gp, pressure=False)[0]
    return JLState(time, up, gp, s.m0)


class EnergyLedger:
    """Per-step energy ledger and a measured-constant Gronwall envelope of
    the run p, which fixes nu and the force f.

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
    of the recursion itself).  A non-finite B_n is a CheckFailure naming the
    time of its state, since as a margin's scale it would pass any margin.

    add() holds only the previous state and keeps four scalars per step;
    record() runs the envelope recursion over them after the last step, so
    the Poincare constant is computed only then.  It reports the first and
    last energies, the final envelope and its least margin over the
    energies, the worst imbalance and the largest one-step rise of sqrt(E).
    """

    def __init__(self, p: Flow) -> None:
        self._nu, self._forcing = p.nu, p.forcing
        self._prev: JLState | None = None
        self._energies: list[float] = []
        self._steps: list[tuple[float, ...]] = []  # t, dt, imbalance, c, |fhat|^2

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
        fhat = self._forcing - dz
        e0, e1 = self._energies[-2:]
        diss = grad_inner(vbar, vbar)
        lhs = (e1 - e0) / (2.0 * dt) + self._nu * diss
        # the zz and vz pairings in one call (linear in the first slot); the
        # zv pairing <S(zbar, vbar), vbar> vanishes by antisymmetry
        adv = face_inner(skew_advect(vbar + zbar, zbar), vbar)
        rhs = face_inner(fhat, vbar) - adv
        ebar = face_inner(vbar, vbar)
        c = abs(adv) / ebar if ebar > 0.0 else 0.0
        step = (dt, lhs - rhs, c, face_inner(fhat, fhat))
        if not all(map(math.isfinite, step)):
            raise CheckFailure(f"non-finite energy ledger pairing at t = {s1.time:.6g}")
        self._steps.append((s1.time, *step))

    def record(self) -> dict:
        energies, steps = self._energies, self._steps
        if len(energies) < 2:
            raise ValueError("need at least two states to check the ledger")
        lam = poincare_constant(self._prev.u.grid)
        envelope = [energies[0]]
        for t, dt, d, c, fh2 in steps:
            if dt * c >= 1.0:
                raise CheckFailure(
                    f"measured advection constant {c:.3e} too large for dt {dt:.3e}; "
                    "the envelope recursion cannot certify this step")
            q = fh2 / (self._nu * lam) + 2.0 * abs(d)
            envelope.append((envelope[-1] * (1.0 + dt * c) + dt * q) / (1.0 - dt * c))
            if not math.isfinite(envelope[-1]):
                raise CheckFailure(f"non-finite energy envelope at t = {t:.6g}")
        return {
            "energy_initial": energies[0],
            "energy_final": energies[-1],
            "envelope_final": envelope[-1],
            "envelope_margin_min": min(b - e for b, e in zip(envelope, energies)),
            "imbalance_max": max(abs(st[2]) for st in steps),
            "energy_increase_max": max([0.0] + [math.sqrt(b) - math.sqrt(a)
                                                for a, b in zip(energies, energies[1:])]),
        }
