"""Tangential-pinned extended flow system with boundary-flux relaxation.

The velocity keeps free wall-normal faces whose values relax, per face, by the
ODE  dh/dt = -lambda h + Cbar(t), while the divergence obeys a Dirichlet heat
equation (zero divergence trace at walls).  Cbar is the compatibility constant
that makes the pressure problem solvable: the average of (nu Lap g + lambda g)
over the domain per unit boundary length.

Two routes again: the constructive route advances (g, h), lifts them to z by
the boundary-data Stokes problem, and advances the divergence-free remainder
with the shared projected step; the direct route advances the velocity with
implicit viscosity under pinned wall faces and repairs the divergence to the
heat-evolved target by a potential correction.

Each step relaxes the wall data in closed form from the divergence masses
M = int g before and M+ after it, per face:

    h+ = e^{-lambda dt} h + (M+ - e^{-lambda dt} M) / 4,

the exact integrating-factor step of dh/dt = -lambda h + cbar for cbar the
exponentially-weighted step average of the instantaneous constant.  The
solvability gap then contracts exactly in the masses:
oint h+ - M+ = e^{-lambda dt} (oint h - M).

A run fixes lambda, nu, dt and the force in an SRFlow p; a run is
scenarios.march(functools.partial(step_direct_sr, p), sr_state(u), nsteps),
which yields the states one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .advection import skew_advect
from .diagnostics import GAP_DECAY_TOL, NET_SOURCE_TOL, SOLVABILITY_TOL, WALL_FOLLOW_TOL
from .errors import CheckFailure, CompatibilityError, SolvabilityError
from .grid import (
    BoundaryTrace,
    ScalarField,
    VectorField,
    _adopt,
    _divergence_values,
    _tangential_wall_rows,
    divergence,
    integral,
    normal_trace,
    rescaled_norm,
    scalar_norm,
    trace_integral,
)
from .heat_oracle import heat_step
from .linsolve import NoslipHelmholtz, heat_solver
from .reference import Flow, cfl_check, perturbed_heun_step
from .stokes_lift import MeasuredState, _remove_gradient, check_finite, check_state, lift_or_zero

__all__ = [
    "SRFlow",
    "SRState",
    "sr_state",
    "compat_constant",
    "evolve_h",
    "step_constructive",
    "step_direct_sr",
    "solvability_gap",
    "sr_gap_run",
]

_PERIMETER = 4.0


class SRFlow(Flow):
    """A relaxed-wall run's Flow and its relaxation rate lam, checked here, once."""

    def __init__(self, lam: float, nu: float, dt: float, forcing: VectorField):
        if not (lam > 0.0 and math.isfinite(lam)):
            raise ValueError(f"relaxation rate must be positive, got {lam!r}")
        super().__init__(nu, dt, forcing)
        self.lam = lam


@dataclass(frozen=True)
class SRState(MeasuredState):
    """Velocity with Dirichlet-heat divergence and relaxing wall-normal data.

    Tangential wall values are pinned to zero through the operator closures
    (the staggered layout stores no tangential wall unknowns); the wall-normal
    faces carry h, one outward-signed value per boundary face.  g is the
    divergence field that the Dirichlet heat equation advances.  The cache
    (v, z) is maintained by the constructive route: z lifts (g, h), v is the
    zero-wall divergence-free remainder.
    The state's measurements (``MeasuredState`` and the wall gap) are taken
    once, when it is checked, and read by the steppers and diagnostics.
    """

    time: float
    u: VectorField
    g: ScalarField
    h: BoundaryTrace
    v: VectorField | None = None
    z: VectorField | None = None

    def __post_init__(self) -> None:
        check_state(self, "dirichlet", self.h)
        # the gap is judged against max(1, max |u|); max |u| is taken only
        # when the gap exceeds the bound at 1
        gap = self.wall_gap
        if gap > WALL_FOLLOW_TOL and gap > WALL_FOLLOW_TOL * self.u.max_abs():
            raise CheckFailure(
                f"wall-normal faces disagree with boundary data by {gap:.3e}")

    @cached_property
    def wall_gap(self) -> float:
        """max |h - u.n| over the wall faces."""
        return (self.h - normal_trace(self.u)).max_abs()

    @property
    def decomposed(self) -> bool:
        return self.v is not None


def sr_state(u: VectorField, decomposed: bool = True) -> SRState:
    """Build a consistent state at t = 0 from a velocity field (wall-normal faces free)."""
    with np.errstate(over="ignore", invalid="ignore"):  # the lift or the state judges u
        g = divergence(u)
    h = normal_trace(u)
    if not decomposed:
        return SRState(0.0, u, g, h)
    z = lift_or_zero(g, u, h)
    return SRState(0.0, u, g, h, u - z, z)


def compat_constant(g: ScalarField, nu: float, lam: float, mass: float) -> float:
    """Compatibility constant: mean of (nu Lap g + lambda g) per boundary
    length, with mass the integral of g that lambda multiplies.

    The fluxes of the interior (Dirichlet-closure) Laplacian telescope, so
    its integral is the outward wall flux of g under the zero-trace closure,
    -2 g_adjacent / h per wall face: only the wall sum is formed.  For
    g = div u the mass is also the outward wall flux of u; the pressure
    source passes that flux, so that its lambda terms and those of its wall
    data are sums over the same faces and cancel to round-off.
    """
    v = g.values
    wall_sum = float(v[0, :].sum() + v[-1, :].sum() + v[:, 0].sum() + v[:, -1].sum())
    return (nu * (-2.0) * wall_sum + lam * mass) / _PERIMETER


def evolve_h(h: BoundaryTrace, m0: float, m1: float, lam: float, dt: float) -> BoundaryTrace:
    """Closed-form relaxation of the wall data per face over a step that
    carries the divergence mass from m0 to m1."""
    decay = math.exp(-lam * dt)
    k = 0.25 * (m1 - decay * m0)                  # spread over the perimeter 4
    return _adopt(BoundaryTrace, h.grid, *[decay * x + k for x in h.arrays])


def solvability_gap(g: ScalarField, h: BoundaryTrace) -> float:
    """Defect of the lifting solvability condition: oint h - int g."""
    return trace_integral(h) - integral(g)


def _advance_gh(p: SRFlow, g: ScalarField,
                h: BoundaryTrace) -> tuple[ScalarField, BoundaryTrace]:
    """One step of the (divergence, boundary-data) subsystem: the Dirichlet
    heat step of g, then the closed-form relaxation of h."""
    gp = heat_step(g, p.solver(heat_solver, p.nu * p.dt, "dirichlet"))
    return gp, evolve_h(h, integral(g), integral(gp), p.lam, p.dt)


def step_constructive(p: SRFlow, s: SRState) -> SRState:
    """One constructive step: Dirichlet heat, boundary ODE, lift, projected flow."""
    if not s.decomposed:
        raise ValueError("constructive route requires the decomposition cache; "
                         "build the state with sr_state(u)")
    cfl_check(s.u, p.dt)
    gap = solvability_gap(s.g, s.h)
    scale = max(1.0, scalar_norm(s.g), s.h.max_abs())
    if abs(gap) > SOLVABILITY_TOL * scale:
        raise SolvabilityError(
            f"solvability gap {gap:.3e} exceeds tolerance; boundary and "
            "divergence data are inconsistent")
    gp, hp = _advance_gh(p, s.g, s.h)
    zp = lift_or_zero(gp, s.u, hp)
    time = s.time + p.dt
    vp = perturbed_heun_step(p, s.v, s.z, zp, time)
    gap_plus = solvability_gap(gp, hp)
    if abs(gap_plus) > math.exp(-p.lam * p.dt) * abs(gap) + GAP_DECAY_TOL * scale:
        raise CheckFailure(
            f"solvability gap grew across the step: {gap:.3e} -> {gap_plus:.3e}")
    return SRState(time, vp + zp, gp, hp, vp, zp)


def _pressure_source(p: SRFlow, s: SRState, fa: VectorField):
    """Assemble the literal pressure source from fa = f - a, forcing less transport.

    Interior data div(f - a); each wall datum (b.n - cc) with
    b = nu Lap_t u + lambda u + (f - a) leaves its wall cell through the
    face, i.e. is subtracted over h, so only the wall-normal rows of the
    tangential Laplacian are evaluated, and the lambda term of the constant
    takes the outward flux of those faces.  Returns (rhs, cc, total, scale):
    the source, the instantaneous compatibility constant and the net source
    with its scale.  Raises CompatibilityError when the net source exceeds
    NET_SOURCE_TOL * scale.
    """
    u, grid = s.u, s.u.grid
    h = grid.h
    cc = compat_constant(s.div_u, p.nu, p.lam, trace_integral(normal_trace(u)))
    # b.n on the walls x = 0, x = 1, y = 0, y = 1: each component is read
    # through a view whose axis 0 runs along its normal
    lap = np.concatenate([_tangential_wall_rows(u.u), _tangential_wall_rows(u.v.T)])
    a = np.concatenate([u.u[[0, -1]], u.v.T[[0, -1]]])
    # a non-finite wall datum or net source is judged below; the scale cannot overflow
    with np.errstate(over="ignore", invalid="ignore"):
        b = lap * (p.nu / (h * h)) + a * p.lam + np.concatenate([fa.u[[0, -1]], fa.v.T[[0, -1]]])
        b[::2] *= -1.0                              # x = 0 and y = 0 face -x and -y
        b -= cc
        b /= h
        rhs = _divergence_values(fa.u, fa.v, h)
        rhs[0] -= b[0]
        rhs[-1] -= b[1]
        rhs[:, 0] -= b[2]
        rhs[:, -1] -= b[3]
        rhs = _adopt(ScalarField, grid, rhs)
        total = integral(rhs)
    scale = max(1.0, rescaled_norm(scalar_norm, rhs))
    if not math.isfinite(total) or abs(total) > NET_SOURCE_TOL * scale:
        raise CompatibilityError(
            f"pressure problem incompatible: net source {total:.3e} "
            "(compatibility constant mis-assembled)")
    return rhs, cc, total, scale


def _explicit_update(p: SRFlow, s: SRState) -> VectorField:
    """u + dt (f - a), once the pressure source of fa = f - a passes its
    compatibility check; a function of its own, so that fa is freed before
    the viscous solve."""
    fa = p.forcing - skew_advect(s.u, s.u)
    update = [x * p.dt for x in fa.arrays]
    for x, u in zip(update, s.u.arrays):
        x += u                                   # u + dt fa, formed in dt fa
    rhs = _adopt(VectorField, s.u.grid, *update)
    # a blown-up update is the next state's fault, judged as its check judges
    # u, before the pressure source and the solve compute with it
    check_finite(s.time + p.dt, velocity=rhs)
    _pressure_source(p, s, fa)
    return rhs


def step_direct_sr(p: SRFlow, s: SRState) -> SRState:
    """One direct step: pinned implicit viscosity plus divergence repair.

    The wall-normal faces are advanced to the relaxed boundary data first and
    enter the viscous solve as Dirichlet values; the divergence is then
    repaired to the backward-Euler Dirichlet heat target by a potential
    correction that leaves the walls untouched.  Any solvability gap carried
    by the data spreads uniformly over the domain and decays by the exact
    per-step factor.  The source of the literal pressure problem is assembled
    each step and its compatibility is enforced; the pressure itself is not
    needed, so it is not solved for.
    """
    cfl_check(s.u, p.dt)
    grid, du, c = s.u.grid, s.div_u, p.nu * p.dt
    gp = _adopt(ScalarField, grid, p.solver(heat_solver, c, "dirichlet", "be")(du.values))
    hp = evolve_h(s.h, integral(du), integral(gp), p.lam, p.dt)
    ustar = p.solver(NoslipHelmholtz, c).solve(_explicit_update(p, s), trace=hp)
    # the repair u+ = u* - grad chi, with chi from div u* - g+, leaves u*'s walls
    up, vp = ustar.u.copy(), ustar.v.copy()
    _remove_gradient(grid, up, vp, gp.values)
    return SRState(s.time + p.dt, _adopt(VectorField, grid, up, vp), gp, hp)


def sr_gap_run(g0: ScalarField, h0: BoundaryTrace, p: SRFlow,
               nsteps: int) -> list[tuple[ScalarField, BoundaryTrace]]:
    """Evolve the (divergence, boundary-data) subsystem alone.

    The pair need not satisfy the solvability condition; the run exposes the
    exact per-step decay of the gap  oint h - int g.  Each step is the update
    the constructive route makes under the run p.
    """
    history = [(g0, h0)]
    for _ in range(nsteps):
        history.append(_advance_gh(p, *history[-1]))
    return history
