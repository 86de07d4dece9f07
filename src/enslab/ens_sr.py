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

Per-step bookkeeping keeps the solvability gap  oint h - int g  decaying by
the exact factor exp(-lambda dt): the per-step constant

    cbar = (lambda/4) (M+ - e^{-lambda dt} M) / (1 - e^{-lambda dt})

is the exponentially-weighted average of the instantaneous constant along any
mass path with those endpoints, which makes the composed h-update agree with
the Duhamel closed form exactly in the masses.

The steppers map one state to the next; a run is
scenarios.march(step_direct_sr, sr_state(u, lam, nu), dt, nsteps), which
yields the states one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .advection import skew_advect
from .diagnostics import (
    GAP_DECAY_TOL, NET_SOURCE_TOL, SOLVABILITY_TOL, WALL_FOLLOW_TOL, DiagnosticsRecord,
)
from .errors import CheckFailure, CompatibilityError, SolvabilityError
from .grid import (
    BoundaryTrace,
    ScalarField,
    VectorField,
    _adopt,
    _tangential_wall_rows,
    divergence,
    gradient,
    integral,
    laplacian_dirichlet,
    normal_trace,
    rescaled_norm,
    scalar_norm,
    trace_integral,
)
from .heat_oracle import DivergenceState, divergence_state, heat_step
from .linsolve import NoslipHelmholtz, heat_solver, neumann_poisson
from .reference import ForcingSpec, cfl_check, perturbed_heun_step
from .stokes_lift import check_finite, check_state, lift_or_zero

__all__ = [
    "SRState",
    "sr_state",
    "compat_constant",
    "compat_constant_flux",
    "evolve_h",
    "step_constructive",
    "step_direct_sr",
    "pressure_poisson",
    "solvability_gap",
    "sr_gap_run",
]

_PERIMETER = 4.0


@dataclass(frozen=True)
class SRState:
    """Velocity with Dirichlet-heat divergence and relaxing wall-normal data.

    Tangential wall values are pinned to zero through the operator closures
    (the staggered layout stores no tangential wall unknowns); the wall-normal
    faces carry h, one outward-signed value per boundary face.  The cache
    (v, z) is maintained by the constructive route: z lifts (g, h), v is the
    zero-wall divergence-free remainder.
    ``div_u`` is taken once, when the state is checked, and read by the
    steppers and diagnostics.
    """

    time: float
    u: VectorField
    g: DivergenceState
    h: BoundaryTrace
    lam: float
    nu: float
    forcing: ForcingSpec
    v: VectorField | None = None
    z: VectorField | None = None

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValueError(f"relaxation rate must be positive, got {self.lam!r}")
        # a solvability gap spreads uniformly, so only the deviation from the
        # mean is constrained
        r = (self.div_u - self.g.g).values
        check_state(self, "dirichlet", _adopt(ScalarField, self.u.grid, r - r.mean()),
                    self.h)
        wall_gap = self.h.blend(1.0, normal_trace(self.u), -1.0).max_abs()
        if wall_gap > WALL_FOLLOW_TOL * max(1.0, self.u.max_abs()):
            raise CheckFailure(
                f"wall-normal faces disagree with boundary data by {wall_gap:.3e}")

    @cached_property
    def div_u(self) -> ScalarField:
        return divergence(self.u)

    @property
    def decomposed(self) -> bool:
        return self.v is not None


def sr_state(u: VectorField, lam: float, nu: float, forcing: ForcingSpec | None = None,
             time: float = 0.0, decomposed: bool = True) -> SRState:
    """Build a consistent state from a velocity field (wall-normal faces free)."""
    forcing = forcing if forcing is not None else ForcingSpec.zero()
    g = divergence_state(divergence(u), "dirichlet", nu, time=time)
    h = normal_trace(u)
    if not decomposed:
        return SRState(time, u, g, h, lam, nu, forcing)
    z = lift_or_zero(g.g, u, h)
    return SRState(time, u, g, h, lam, nu, forcing, u - z, z)


def compat_constant(g: DivergenceState, lam: float) -> float:
    """Compatibility constant: mean of (nu Lap g + lambda g) per boundary length.

    Evaluated with the interior (Dirichlet-closure) Laplacian; by the exact
    telescoping of its fluxes this equals the boundary-flux quadrature form,
    see compat_constant_flux.
    """
    vals = integral(laplacian_dirichlet(g.g)) * g.nu + integral(g.g) * lam
    return vals / _PERIMETER


def compat_constant_flux(g: DivergenceState, lam: float) -> float:
    """Flux form of the compatibility constant.

    The Laplacian volume term is replaced by the outward wall flux of g under
    the zero-trace closure, whose value per wall face is -2 g_adjacent / h;
    discretely identical to compat_constant by telescoping.
    """
    v = g.g.values
    wall_sum = float(v[0, :].sum() + v[-1, :].sum() + v[:, 0].sum() + v[:, -1].sum())
    return (g.nu * (-2.0) * wall_sum + lam * integral(g.g)) / _PERIMETER


def evolve_h(h: BoundaryTrace, cbar: float, lam: float, dt: float) -> BoundaryTrace:
    """Exact integrating-factor update of dh/dt = -lambda h + cbar per face."""
    if not (dt > 0.0):
        raise ValueError(f"time step must be positive, got {dt!r}")
    if not (lam > 0.0):
        raise ValueError(f"relaxation rate must be positive, got {lam!r}")
    decay = math.exp(-lam * dt)
    k = (1.0 - decay) * cbar / lam
    return _adopt(BoundaryTrace, h.grid, *[decay * x + k for x in h.arrays])


def solvability_gap(g: DivergenceState, h: BoundaryTrace) -> float:
    """Defect of the lifting solvability condition: oint h - int g."""
    return trace_integral(h) - integral(g.g)


def _step_average_constant(m0: float, m1: float, lam: float, dt: float) -> float:
    """Per-step constant from the mass endpoints (exp-weighted step average)."""
    decay = math.exp(-lam * dt)
    return 0.25 * lam * (m1 - decay * m0) / (1.0 - decay)


def step_constructive(s: SRState, dt: float) -> SRState:
    """One constructive step: Dirichlet heat, boundary ODE, lift, projected flow."""
    if not s.decomposed:
        raise ValueError("constructive route requires the decomposition cache; "
                         "build the state with sr_state(u, lam, nu, ...)")
    cfl_check(s.u, dt)
    gap = solvability_gap(s.g, s.h)
    scale = max(1.0, scalar_norm(s.g.g), s.h.max_abs())
    if abs(gap) > SOLVABILITY_TOL * scale:
        raise SolvabilityError(
            f"solvability gap {gap:.3e} exceeds tolerance; boundary and "
            "divergence data are inconsistent")
    gp = heat_step(s.g, dt)
    cbar = _step_average_constant(integral(s.g.g), integral(gp.g), s.lam, dt)
    hp = evolve_h(s.h, cbar, s.lam, dt)
    zp = lift_or_zero(gp.g, s.u, hp)
    f_mid = s.forcing.evaluate(s.u.grid, s.time + 0.5 * dt)
    vp = perturbed_heun_step(s.v, s.z, zp, dt, s.nu, f_mid, s.time + dt)
    gap_plus = solvability_gap(gp, hp)
    if abs(gap_plus) > math.exp(-s.lam * dt) * abs(gap) + GAP_DECAY_TOL * scale:
        raise CheckFailure(
            f"solvability gap grew across the step: {gap:.3e} -> {gap_plus:.3e}")
    return SRState(s.time + dt, vp + zp, gp, hp, s.lam, s.nu, s.forcing, vp, zp)


def _pressure_source(s: SRState, fa: VectorField):
    """Assemble the literal pressure source from fa = f - a, forcing less transport.

    Interior data div(f - a); each wall datum (b.n - cc) with
    b = nu Lap_t u + lambda u + (f - a) leaves its wall cell through the
    face, i.e. is subtracted over h, so only the wall-normal rows of the
    tangential Laplacian are evaluated.  Returns (rhs, cc, total, scale):
    the source, the instantaneous compatibility constant and the net source
    with its scale.  Raises CompatibilityError when the net source exceeds
    NET_SOURCE_TOL * scale.
    """
    u, grid = s.u, s.u.grid
    h = grid.h
    cc = compat_constant(divergence_state(s.div_u, "dirichlet", s.nu, time=s.time), s.lam)
    # b on the wall-normal faces: rows x = 0, 1 and y = 0, 1
    bu = (_tangential_wall_rows(u.u) / (h * h)) * s.nu + u.u[[0, -1]] * s.lam + fa.u[[0, -1]]
    bv = (_tangential_wall_rows(u.v.T) / (h * h)) * s.nu + u.v[:, [0, -1]].T * s.lam \
        + fa.v[:, [0, -1]].T
    rhs = divergence(fa).values.copy()
    rhs[0, :] -= (-bu[0] - cc) / h
    rhs[-1, :] -= (bu[1] - cc) / h
    rhs[:, 0] -= (-bv[0] - cc) / h
    rhs[:, -1] -= (bv[1] - cc) / h
    rhs = _adopt(ScalarField, grid, rhs)
    # a non-finite net source is judged below; the scale cannot overflow
    with np.errstate(over="ignore", invalid="ignore"):
        total = integral(rhs)
    scale = max(1.0, rescaled_norm(scalar_norm, rhs))
    if not math.isfinite(total) or abs(total) > NET_SOURCE_TOL * scale:
        raise CompatibilityError(
            f"pressure problem incompatible: net source {total:.3e} "
            "(compatibility constant mis-assembled)")
    return rhs, cc, total, scale


def pressure_poisson(s: SRState) -> tuple[ScalarField, DiagnosticsRecord]:
    """Assemble and solve the literal pressure problem; report compatibility.

    Interior data: div(f - transport); wall data: (nu Lap_t u - transport
    + lambda u + f) . n - Cbar, with the instantaneous compatibility constant.
    The assembled right-hand side sums to zero exactly (commutation of the
    divergence with the tangential vector Laplacian plus the divergence
    theorem), which is what the record certifies.
    """
    fa = s.forcing.evaluate(s.u.grid, s.time) - skew_advect(s.u, s.u)
    rhs, cc, total, scale = _pressure_source(s, fa)
    p = neumann_poisson(s.u.grid).solve(rhs)
    rec = DiagnosticsRecord(s.time, {
        "net_source": total,
        "net_source_relative": total / scale,
        "compat_constant": cc,
        "pressure_norm": scalar_norm(p),
    }, "ens_sr.pressure_poisson")
    return p, rec


def step_direct_sr(s: SRState, dt: float) -> SRState:
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
    cfl_check(s.u, dt)
    grid = s.u.grid
    u, du = s.u, s.div_u
    fa = s.forcing.evaluate(grid, s.time) - skew_advect(u, u)
    rhs = u + fa * dt
    # a blown-up update is the next state's fault, judged as its check judges
    # u, before the pressure source and the solve compute with it
    check_finite(s.time + dt, velocity=rhs)
    _pressure_source(s, fa)
    gp_field = _adopt(ScalarField, grid,
                      heat_solver(grid, s.nu * dt, "dirichlet", theta="be")(du.values))
    cbar = _step_average_constant(integral(du), integral(gp_field), s.lam, dt)
    hp = evolve_h(s.h, cbar, s.lam, dt)
    ustar = NoslipHelmholtz(grid, s.nu * dt).solve(rhs, trace=hp)
    chi = neumann_poisson(grid).solve(divergence(ustar) - gp_field)
    up = ustar - gradient(chi)
    gp = divergence_state(gp_field, "dirichlet", s.nu, time=s.time + dt)
    return SRState(s.time + dt, up, gp, hp, s.lam, s.nu, s.forcing)


def sr_gap_run(g0: ScalarField, h0: BoundaryTrace, lam: float, nu: float,
               dt: float, nsteps: int) -> list[tuple[DivergenceState, BoundaryTrace]]:
    """Evolve the (divergence, boundary-data) subsystem alone.

    The pair need not satisfy the solvability condition; the run exposes the
    exact per-step decay of the gap  oint h - int g.
    """
    g = divergence_state(g0, "dirichlet", nu)
    h = h0
    history = [(g, h)]
    for _ in range(nsteps):
        gp = heat_step(g, dt)
        cbar = _step_average_constant(integral(g.g), integral(gp.g), lam, dt)
        h = evolve_h(h, cbar, lam, dt)
        g = gp
        history.append((g, h))
    return history
