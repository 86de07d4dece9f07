"""Shared time-stepping core and reference incompressible-flow steppers.

The projected viscous steps (the order-2 reference here and the lifted-flow
steppers of both systems) solve the generalized Stokes problem of
``linsolve`` at alpha = 1: (I - c Lap) u + grad p = rhs, div u = 0 with zero
walls, Lap the no-slip vector Laplacian.  Its velocity solves
(I - c * P Lap P) u = P rhs with P the discrete Leray projection.  Solving
on the divergence-free subspace (rather than projecting after an
unconstrained solve) is what makes the discrete energy ledger close exactly:
pairing the update with the midpoint velocity leaves no uncontrolled O(dt)
pressure-coupling term.  The no-slip direct step makes the same solve with
divergence data, div u = g+, in place of div u = 0.  The tangential-system
direct step solves the velocity block alone (``NoslipHelmholtz``) and then
repairs the divergence.

The reference stepper for the *standard*, unforced incompressible equations,
``step_nse_projection``, is projected trapezoidal viscosity + Heun
(midpoint-averaged) transport.  The lifted-flow steppers of the two extended
systems reduce to this scheme, call by call, when their divergence data and
force vanish.  (The classical splitting, to which the tangential-system direct
stepper reduces, is a test oracle.)  A run's fixed values are its ``Flow``.
"""

from __future__ import annotations

import functools
import math

from .advection import skew_advect
from .errors import CFLError
from .grid import Grid, VectorField, vector_laplacian
from .linsolve import GeneralizedStokes, _tridiagonal_eigvals
from .stokes_lift import check_finite

__all__ = [
    "Flow",
    "cfl_check",
    "poincare_constant",
    "perturbed_heun_step",
    "step_nse_projection",
]


class Flow:
    """What a flow run fixes: the viscosity nu, checked here once, the time
    step dt and the body force ``forcing``; and the solvers they fix:
    solver(build, *args) is build(grid, *args), built on the first call with
    these arguments and held for the run."""

    def __init__(self, nu: float, dt: float, forcing: VectorField):
        if not (nu > 0.0 and math.isfinite(nu)):
            raise ValueError(f"viscosity must be positive and finite, got {nu}")
        self.nu, self.dt, self.forcing = nu, dt, forcing
        self.solver = functools.cache(lambda build, *args: build(forcing.grid, *args))


def cfl_check(u: VectorField, dt: float) -> None:
    """Step-size guards of every stepper: dt > 0 (ValueError) and the
    advective limit dt <= h / (2 max |u|) (CFLError)."""
    if not (dt > 0.0):
        raise ValueError(f"time step must be positive, got {dt!r}")
    # u.max_abs(), read without the temporary of np.abs
    vmax = max(max(float(a.max()), -float(a.min())) for a in u.arrays)
    if vmax == 0.0:
        return
    limit = u.grid.h / (2.0 * vmax)
    if dt > limit:
        raise CFLError(
            f"time step {dt:.3e} exceeds the advective limit {limit:.3e} "
            f"(max speed {vmax:.3e}, h = {u.grid.h:.3e})")


def poincare_constant(grid: Grid) -> float:
    """Smallest eigenvalue of the no-slip vector Dirichlet energy.

    ||grad w||^2 >= lambda * ||w||^2 for every zero-wall field w; this is a
    guaranteed lower bound for the divergence-free (Stokes) ground eigenvalue
    and is what the Gronwall envelope uses, keeping the envelope a true bound.
    Each block of K = -Lap_noslip is a Kronecker sum of the 1-D Dirichlet
    tridiagonals on nodes and on cells, alike on the square grid: lambda is
    -(max lambda_node + max lambda_cell), from the closed-form eigenvalues.
    """
    top = [_tridiagonal_eigvals(grid.n, kind)[0].max() for kind in ("node", "cell")]
    return -float(top[0] + top[1])


def perturbed_heun_step(p: Flow, v: VectorField, z0: VectorField, z1: VectorField,
                        time: float) -> VectorField:
    """One step of the run p, reaching ``time``, of the lifted-flow equation
    for the divergence-free part v.

    dv/dt = P[ nu Lap v + f - dz/dt - ((v+z).grad)(v+z) ] with f the body
    force, z held on the midpoint (z0 + z1)/2 and
    dz/dt = (z1 - z0)/dt; trapezoidal viscosity with a Heun
    (predictor-averaged) transport term, solved on range(P).  A non-finite
    right-hand side is a CheckFailure naming ``time``, not a solver error.
    """
    dt, forcing = p.dt, p.forcing
    c = 0.5 * p.nu * dt
    zbar = (z0 + z1) * 0.5
    dz = (z1 - z0) * (1.0 / dt)
    lap_v = vector_laplacian(v)

    def slope(w: VectorField) -> VectorField:
        wz = w + zbar
        return forcing - dz - skew_advect(wz, wz)

    stokes = p.solver(GeneralizedStokes, 1.0, c)

    def solve(rhs: VectorField) -> VectorField:
        check_finite(time, velocity=rhs)
        return stokes.solve(rhs, pressure=False)[0]

    a1 = slope(v)
    v1 = solve(v + a1 * dt + lap_v * c)
    a2 = slope(v1)
    return solve(v + (a1 + a2) * (dt * 0.5) + lap_v * c)


def step_nse_projection(u: VectorField, dt: float, nu: float) -> VectorField:
    """Reference stepper for the standard unforced incompressible equations:
    the projected trapezoidal/Heun scheme.  Input must be discretely
    divergence-free with zero wall faces.  Each call builds its own solver.
    """
    cfl_check(u, dt)
    g = u.grid
    c = 0.5 * nu * dt
    lap_u = vector_laplacian(u)
    a1 = -skew_advect(u, u)
    solve = GeneralizedStokes(g, 1.0, c).solve
    v1 = solve(u + a1 * dt + lap_u * c, pressure=False)[0]
    a2 = -skew_advect(v1, v1)
    return solve(u + (a1 + a2) * (dt * 0.5) + lap_u * c, pressure=False)[0]
