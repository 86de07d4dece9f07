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
divergence data, div u = g+, in place of div u = 0.  The order-1 reference
and the tangential-system direct step solve the velocity block alone
(``NoslipHelmholtz``) and then project or repair the divergence.

Two reference steppers for the *standard* incompressible equations live here:

* ``order=2``: projected trapezoidal viscosity + Heun (midpoint-averaged)
  transport.  The lifted-flow steppers of the two extended systems reduce to
  this scheme, call by call, when their divergence data vanishes.
* ``order=1``: backward-Euler viscosity, explicit transport, projection last
  (the classical splitting).  The tangential-system direct stepper reduces to
  this one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .advection import skew_advect
from .errors import CFLError
from .grid import Grid, VectorField, vector_from_functions, vector_laplacian
from .linsolve import NoslipHelmholtz, _tridiagonal_eigvals, generalized_stokes
from .stokes_lift import check_finite, leray_project

__all__ = [
    "ForcingSpec",
    "cfl_check",
    "poincare_constant",
    "perturbed_heun_step",
    "step_nse_projection",
]


@dataclass(frozen=True)
class ForcingSpec:
    """Closed-form body force (x, y, t) -> components, sampled on faces.

    ``fu``/``fv`` are broadcasting callables or None for the zero forcing.
    A ``steady`` force ignores t: it is sampled once per grid and the frozen
    field is returned at every later time.
    """

    fu: object = None
    fv: object = None
    steady: bool = False
    _sampled: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def zero() -> "ForcingSpec":
        return ForcingSpec()

    def is_zero(self) -> bool:
        return self.fu is None and self.fv is None

    def evaluate(self, grid: Grid, t: float) -> VectorField:
        if self.is_zero():
            return VectorField.zeros(grid)
        if self.steady and grid in self._sampled:
            return self._sampled[grid]
        f = vector_from_functions(grid, lambda x, y: self.fu(x, y, t),
                                  lambda x, y: self.fv(x, y, t))
        if self.steady:
            self._sampled[grid] = f
        return f


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
    top = [_tridiagonal_eigvals(grid.nx, grid.h, kind)[0].max() for kind in ("node", "cell")]
    return -float(top[0] + top[1])


def perturbed_heun_step(v: VectorField, z0: VectorField, z1: VectorField,
                        dt: float, nu: float, f_mid: VectorField, time: float) -> VectorField:
    """One step, reaching ``time``, of the lifted-flow equation for the
    divergence-free part v.

    dv/dt = P[ nu Lap v + f - dz/dt - ((v+z).grad)(v+z) ] with z held on the
    midpoint (z0 + z1)/2 and dz/dt = (z1 - z0)/dt; trapezoidal viscosity with
    a Heun (predictor-averaged) transport term, solved on range(P).  A
    non-finite right-hand side is a CheckFailure naming ``time``, not a
    solver error.
    """
    g = v.grid
    c = 0.5 * nu * dt
    zbar = (z0 + z1) * 0.5
    dz = (z1 - z0) * (1.0 / dt)
    lap_v = vector_laplacian(v)

    def slope(w: VectorField) -> VectorField:
        wz = w + zbar
        return f_mid - dz - skew_advect(wz, wz)

    stokes = generalized_stokes(g, 1.0, c)

    def solve(rhs: VectorField) -> VectorField:
        check_finite(time, velocity=rhs)
        return stokes.solve(rhs, pressure=False)[0]

    a1 = slope(v)
    v1 = solve(v + a1 * dt + lap_v * c)
    a2 = slope(v1)
    return solve(v + (a1 + a2) * (dt * 0.5) + lap_v * c)


def step_nse_projection(u: VectorField, t: float, dt: float, nu: float,
                        forcing: ForcingSpec | None = None, order: int = 2) -> VectorField:
    """Reference stepper for the standard incompressible equations.

    Input must be discretely divergence-free with zero wall faces.  order=2
    is the projected trapezoidal/Heun scheme; order=1 the classical splitting
    (backward-Euler viscosity, explicit transport, projection last).
    """
    cfl_check(u, dt)
    g = u.grid
    forcing = ForcingSpec.zero() if forcing is None else forcing
    if order == 1:
        a = skew_advect(u, u)
        f = forcing.evaluate(g, t)
        w = NoslipHelmholtz(g, nu * dt).solve(u + (f - a) * dt)
        return leray_project(w)
    if order != 2:
        raise ValueError(f"unknown order {order!r} (expected 1 or 2)")
    f_mid = forcing.evaluate(g, t + 0.5 * dt)
    c = 0.5 * nu * dt
    lap_u = vector_laplacian(u)
    a1 = f_mid - skew_advect(u, u)
    solve = generalized_stokes(g, 1.0, c).solve
    v1 = solve(u + a1 * dt + lap_u * c, pressure=False)[0]
    a2 = f_mid - skew_advect(v1, v1)
    return solve(u + (a1 + a2) * (dt * 0.5) + lap_u * c, pressure=False)[0]
