"""Divergence lifting, orthogonal flow decomposition, and the Leray projection.

The central construction: given a prescribed divergence g (mean zero), the
*lift* z is the velocity field solving the stationary Stokes system
-Lap z + grad q = 0, div z = g with zero wall velocity; subtracting it from
any admissible velocity field u leaves v = u - z that is discretely
divergence-free and H1-orthogonal to the lift.  The lift also admits
prescribed wall-normal velocity, used by the boundary-relaxation system.

Also here: the discrete Leray projection (L2-orthogonal projection onto
divergence-free fields with zero wall-normal flux), the round-off floors of
a velocity field, and the invariants and measurements shared by the states
of both systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .diagnostics import (
    DRIFT_ABS, DRIFT_RTOL, LIFT_FLOOR, RECONSTRUCT_TOL, SPLIT_RECONSTRUCT_TOL,
    SPLIT_TOL, SPLIT_WALL_TOL, TINY, WALL_FLOOR,
)
from .errors import CheckFailure, CompatibilityError
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    _adopt,
    _divergence_values,
    divergence,
    face_norm,
    grad_inner,
    normal_trace,
    scalar_norm,
    with_normal_trace,
)
from .linsolve import lift_solver, neumann_poisson

__all__ = [
    "Decomposition",
    "leray_project",
    "lift_divergence",
    "decompose",
    "lift_floor",
    "wall_floor",
    "lift_or_zero",
    "check_finite",
    "check_state",
    "MeasuredState",
]


def lift_floor(u: VectorField) -> float:
    """Divergence norms at or below this are round-off, not data, for u."""
    return LIFT_FLOOR * max(1.0, face_norm(u) / u.grid.h)


def wall_floor(u: VectorField) -> float:
    """Wall-normal values at or below this are round-off, not data, for u."""
    return WALL_FLOOR * max(1.0, u.max_abs())


def _negligible(g: ScalarField, u: VectorField, trace: BoundaryTrace | None = None) -> bool:
    """Whether g and the wall data ``trace`` are both round-off for the field u."""
    # overflowed norms compare as round-off and give the zero lift; in
    # decompose(), validate() then names the non-finite measurement
    with np.errstate(over="ignore", invalid="ignore"):
        return (scalar_norm(g) <= lift_floor(u)
                and (trace is None or trace.max_abs() <= wall_floor(u)))


def lift_or_zero(g: ScalarField, u: VectorField, trace: BoundaryTrace | None = None):
    """The lift of (g, trace); zero when both are round-off for the field u."""
    if _negligible(g, u, trace):
        return VectorField.zeros(u.grid)
    return lift_divergence(g, trace)


def check_finite(time: float, **fields) -> None:
    """Raise CheckFailure naming the first field (None skipped) with a
    non-finite value, and the time of the state it belongs to.  A sum of
    squares is finite only if every entry is, so only an array whose sum is
    not is scanned."""
    for name, f in fields.items():
        if f is not None and not all(math.isfinite(float(np.vdot(a, a))) or np.isfinite(a).all()
                                     for a in f.arrays):
            raise CheckFailure(f"non-finite {name.replace('_', ' ')} at t = {time:.6g}")


class MeasuredState:
    """The measurements of a flow state (u, g) that its check, its stepper
    and the diagnostics share, each taken once, when first read."""

    @cached_property
    def div_u(self) -> ScalarField:
        return divergence(self.u)

    @cached_property
    def u_l2(self) -> float:
        return face_norm(self.u)

    @cached_property
    def g_l2(self) -> float:
        return scalar_norm(self.g)


def check_state(state: MeasuredState, bc: str, trace: BoundaryTrace | None = None) -> None:
    """Invariants shared by the states of both systems.

    u, the divergence g, the wall data ``trace`` and the cache hold finite
    values only, the one finiteness scan a state gets; the part of div u - g
    that the system constrains (with g's closure ``bc`` Dirichlet, less its
    mean: a solvability gap spreads uniformly) stays within the drift bound;
    the cache (v, z) is both present or both absent and, when present,
    reconstructs u.  The run's values (nu, lambda) are checked by its Flow.
    """
    check_finite(state.time, velocity=state.u, divergence=state.g, wall_data=trace,
                 divergence_free_part=state.v, lift=state.z)
    u = state.u
    residual = np.subtract(state.div_u.values, state.g.values)
    if bc == "dirichlet":
        residual -= residual.mean()
    with np.errstate(over="ignore"):  # a norm that overflows reads inf; cfl_check judges u
        err = scalar_norm(_adopt(ScalarField, u.grid, residual))
        scale = max(state.g_l2, state.u_l2 / u.grid.h)
    if err > DRIFT_RTOL * scale + DRIFT_ABS:
        raise CheckFailure(
            f"velocity divergence drifted from its heat state: {err:.3e} "
            f"against scale {scale:.3e}")
    if (state.v is None) != (state.z is None):
        raise ValueError("decomposition cache must be both present or absent")
    if state.v is not None:
        gap = (u - (state.v + state.z)).max_abs()
        if gap > RECONSTRUCT_TOL * max(1.0, u.max_abs()):
            raise CheckFailure(
                f"decomposition cache does not reconstruct the velocity ({gap:.3e})")


@dataclass(frozen=True)
class Decomposition:
    """u = v + z with v discretely divergence-free and H1-orthogonal to z.

    ``record`` holds the measurements of the validate() call that
    decompose() made, so a caller reports them without measuring again.
    """

    v: VectorField
    z: VectorField
    q: ScalarField
    record: dict | None = field(default=None, compare=False, repr=False)

    def validate(self, u: VectorField) -> dict:
        """Re-check the three structural invariants against the input u at t = 0.

        Returns the measurements with the scales they were judged against;
        an overflowed one is a CheckFailure naming it.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # judged below
            dv = scalar_norm(divergence(self.v))
            scale_div = max(face_norm(u) / u.grid.h, TINY)  # natural size of div u
            gv = math.sqrt(max(grad_inner(self.v, self.v), 0.0))
            gz = math.sqrt(max(grad_inner(self.z, self.z), 0.0))
            ortho = grad_inner(self.v, self.z)
            # the pairing equals <div v, q> up to round-off, i.e. solver residual
            # times pressure; its natural scale is the input gradient energy
            # (which dominates gv*gz), so degenerate splits stay checkable
            scale_ortho = max(gv * gz, 0.5 * max(grad_inner(u, u), 0.0), TINY)
            err = (self.v + self.z - u).max_abs()
        scale_rec = max(1.0, u.max_abs())
        metrics = {
            "div_v_l2": dv, "div_scale": scale_div,
            "v_h1_semi": gv, "z_h1_semi": gz,
            "grad_orthogonality": ortho, "orthogonality_scale": scale_ortho,
            "reconstruction": err, "reconstruction_scale": scale_rec,
        }
        for name, value in metrics.items():
            if not math.isfinite(value):
                raise CheckFailure(f"non-finite split measurement {name} at t = 0")
        if dv > SPLIT_TOL * scale_div:
            raise CompatibilityError(f"decomposition: div v = {dv:.3e} not zero")
        if abs(ortho) > SPLIT_TOL * scale_ortho:
            raise CompatibilityError(f"decomposition: gradient orthogonality {ortho:.3e}")
        if err > SPLIT_RECONSTRUCT_TOL * scale_rec:
            raise CompatibilityError(f"decomposition: reconstruction error {err:.3e}")
        return metrics


def leray_project(u: VectorField) -> VectorField:
    """L2-orthogonal projection onto divergence-free, zero-normal-flux fields.

    Solves the zero-flux Poisson problem for the potential of the wall-zeroed
    part of u (the wall-normal flux is folded into the right-hand side by
    dropping the wall faces, which is exactly the flux closure of the
    cell-centered Laplacian) and subtracts its gradient.  The result has zero
    wall-normal faces exactly and zero discrete divergence to solver
    precision; it is idempotent and L2-orthogonal to what it removes.
    """
    g = u.grid
    interior = with_normal_trace(u, BoundaryTrace.zeros(g))
    pu, pv = interior.u.copy(), interior.v.copy()
    _remove_gradient(g, pu, pv)
    return VectorField(g, pu, pv)


def _remove_gradient(grid: Grid, u: np.ndarray, v: np.ndarray,
                     g: np.ndarray | None = None) -> None:
    """Subtract from the face arrays (u, v), in place, the gradient of the
    zero-flux potential of div(u, v) - g (None for zero), leaving their
    wall-normal faces as they are: the divergence becomes g up to a
    constant.  With zero wall-normal faces and no g this is the Leray
    projection.  Leading stack axes are kept; g is one cell array."""
    chi = _divergence_values(u, v, grid.h)
    if g is not None:
        chi -= g
    chi = neumann_poisson(grid).solve_values(chi)
    for faces, step in ((u[..., 1:-1, :], np.subtract(chi[..., 1:, :], chi[..., :-1, :])),
                        (v[..., 1:-1], np.subtract(chi[..., 1:], chi[..., :-1]))):
        step /= grid.h
        faces -= step


def lift_divergence(g: ScalarField, trace: BoundaryTrace | None = None) -> VectorField:
    """Velocity lift z of a divergence field g with outward wall-normal
    velocity ``trace`` (None for zero walls).

    z solves the Stokes system with div z = g and zero tangential wall
    velocity; its pressure is not formed (``decompose`` keeps it).
    Solvability requires the volume integral of g to equal the boundary flux
    of the trace (zero without one) to COMPAT_TOL; the solve raises
    CompatibilityError otherwise.
    """
    return lift_solver(g.grid).solve(g=g, trace=trace, pressure=False)[0]


def decompose(u: VectorField) -> Decomposition:
    """Split u (zero wall-normal faces) into divergence-free v plus lift z.

    The lift's divergence residual is relative to ||div u||, which is ~1/h
    times larger than ||u||; its tolerance STOKES_TOL is well below the
    SPLIT_TOL invariant level.  A divergence at round-off level (lift_floor)
    is not lifted at all (z = 0).  The returned split carries the
    measurements of its validation, at t = 0, as ``record``.
    """
    wall_flux = normal_trace(u).max_abs()
    if wall_flux > SPLIT_WALL_TOL * max(1.0, u.max_abs()):
        raise CompatibilityError(
            f"decompose: wall-normal faces must vanish, max {wall_flux:.3e} "
            "(project the flux away first)")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite data fail the solve
        g = divergence(u)                # the one lift that keeps its pressure
    z, q = ((VectorField.zeros(u.grid), ScalarField.zeros(u.grid)) if _negligible(g, u)
            else lift_solver(u.grid).solve(g=g))
    dec = Decomposition(v=u - z, z=z, q=q)
    return replace(dec, record=dec.validate(u))
