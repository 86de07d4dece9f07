"""Divergence lifting, orthogonal flow decomposition, and the Leray projection.

The central construction: given a prescribed divergence g (mean zero), the
*lift* z is the velocity field solving the stationary Stokes system
-Lap z + grad q = 0, div z = g with zero wall velocity; subtracting it from
any admissible velocity field u leaves v = u - z that is discretely
divergence-free and H1-orthogonal to the lift.  A variant admits prescribed
wall-normal velocity, used by the boundary-relaxation system.

Also here: the discrete Leray projection (L2-orthogonal projection onto
divergence-free fields with zero wall-normal flux) and the informational
dual-norm bound check for the lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRecord, htilde_norm
from .errors import CompatibilityError
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    divergence,
    face_inner,
    face_norm,
    grad_inner,
    gradient,
    mean,
    scalar_norm,
    with_normal_trace,
)
from .linsolve import generalized_stokes, neumann_poisson

__all__ = [
    "Decomposition",
    "leray_project",
    "lift_divergence",
    "lift_with_boundary",
    "lifting_constant",
    "decompose",
    "check_weak_lifting_bound",
]


@dataclass(frozen=True)
class Decomposition:
    """u = v + z with v discretely divergence-free and H1-orthogonal to z."""

    v: VectorField
    z: VectorField
    q: ScalarField

    def validate(self, u: VectorField, tol: float = 1e-9) -> None:
        """Re-check the three structural invariants against the input u."""
        g = self.v.grid
        dv = scalar_norm(divergence(self.v))
        scale_div = max(face_norm(u) / g.h, 1e-300)  # natural size of div u
        if dv > tol * scale_div:
            raise CompatibilityError(f"decomposition: div v = {dv:.3e} not zero")
        gv = math.sqrt(max(grad_inner(self.v, self.v), 0.0))
        gz = math.sqrt(max(grad_inner(self.z, self.z), 0.0))
        ortho = grad_inner(self.v, self.z)
        gu2 = max(grad_inner(u, u), 0.0)
        # the pairing equals <div v, q> up to round-off, i.e. solver residual
        # times pressure; its natural scale is the input gradient energy
        # (which dominates gv*gz), so degenerate splits stay checkable
        if abs(ortho) > tol * max(gv * gz, 0.5 * gu2, 1e-300):
            raise CompatibilityError(f"decomposition: gradient orthogonality {ortho:.3e}")
        rec = self.v + self.z
        err = max(np.abs(rec.u - u.u).max(), np.abs(rec.v - u.v).max())
        if err > 1e-14 * max(1.0, u.max_abs()):
            raise CompatibilityError(f"decomposition: reconstruction error {err:.3e}")


def leray_project(u: VectorField) -> VectorField:
    """L2-orthogonal projection onto divergence-free, zero-normal-flux fields.

    Solves the zero-flux Poisson problem for the potential of the wall-zeroed
    part of u (the wall-normal flux is folded into the right-hand side by
    dropping the wall faces, which is exactly the flux closure of the
    cell-centered Laplacian) and subtracts its gradient.  The result has zero
    wall-normal faces exactly and zero discrete divergence to factorization
    precision; it is idempotent and L2-orthogonal to what it removes.
    """
    g = u.grid
    interior = with_normal_trace(u, BoundaryTrace.zeros(g))
    rhs = divergence(interior)
    phi = neumann_poisson(g).solve(rhs)
    gp = gradient(phi)
    return VectorField(g, interior.u - gp.u, interior.v - gp.v)


def lift_divergence(g: ScalarField):
    """Velocity lift of a mean-zero divergence field: returns (z, q).

    z solves the zero-wall Stokes system with div z = g; q is the mean-zero
    lifting pressure.  The measured stability ratio ||z||_H1 / ||g||_L2 is
    available via :func:`lifting_constant`.
    """
    if abs(mean(g)) > 1e-10 * max(1.0, scalar_norm(g)):
        raise CompatibilityError(
            f"lift_divergence: divergence field must have mean zero, got mean {mean(g):.3e}")
    z, q, _ = generalized_stokes(g.grid, 0.0, 1.0).solve(g=g)
    return z, q


def lift_with_boundary(g: ScalarField, h: BoundaryTrace):
    """Lift with prescribed outward wall-normal velocity h: returns (z, q).

    Solvability requires the volume integral of g to equal the boundary flux
    of h to 1e-10; tangential wall velocity is zero by construction.
    """
    vol = scalar_norm(g)
    flux_g = float(np.sum(g.values)) * g.grid.h ** 2
    flux_h = g.grid.h * float(np.sum(h.left) + np.sum(h.right) + np.sum(h.bottom) + np.sum(h.top))
    if abs(flux_g - flux_h) > 1e-10 * max(1.0, vol, h.max_abs()):
        raise CompatibilityError(
            f"lift_with_boundary: volume integral {flux_g:.6e} does not balance "
            f"boundary flux {flux_h:.6e}")
    z, q, _ = generalized_stokes(g.grid, 0.0, 1.0).solve(g=g, trace=h)
    return z, q


def lifting_constant(g: ScalarField) -> float:
    """Measured stability ratio ||z||_H1 / ||g||_L2 of the zero-wall lift."""
    ng = scalar_norm(g)
    if ng == 0.0:
        return 0.0
    z, _ = lift_divergence(g)
    l2 = face_norm(z)
    h1s = max(grad_inner(z, z), 0.0)
    return math.sqrt(l2 * l2 + h1s) / ng


def decompose(u: VectorField) -> Decomposition:
    """Split u (zero wall-normal faces) into divergence-free v plus lift z.

    The lift's divergence residual is relative to ||div u||, which is ~1/h
    times larger than ||u||; its tolerance STOKES_TOL is well below the 1e-9
    invariant level.  A divergence at round-off level is not lifted at all
    (z = 0).
    """
    wall_flux = max(np.abs(u.u[0, :]).max(), np.abs(u.u[-1, :]).max(),
                    np.abs(u.v[:, 0]).max(), np.abs(u.v[:, -1]).max())
    if wall_flux > 1e-10 * max(1.0, u.max_abs()):
        raise CompatibilityError(
            f"decompose: wall-normal faces must vanish, max {wall_flux:.3e} "
            "(project the flux away first)")
    du = divergence(u)
    noise_floor = 1e-12 * max(1.0, face_norm(u) / u.grid.h)
    if scalar_norm(du) <= noise_floor:
        z = VectorField.zeros(u.grid)
        q = ScalarField(u.grid, np.zeros(u.grid.shape_cell))
    else:
        z, q = lift_divergence(du)
    v = VectorField(u.grid, u.u - z.u, u.v - z.v)
    dec = Decomposition(v=v, z=z, q=q)
    dec.validate(u)
    return dec


def check_weak_lifting_bound(g: ScalarField, time: float = 0.0) -> DiagnosticsRecord:
    """Informational dual-norm ratio ||z||_L2 / ||g||_dual for the lift.

    The continuum bound needs a curved-smooth boundary, which the unit square
    is not; the ratio is therefore recorded for trend inspection across
    refinement, never asserted.
    """
    ng = scalar_norm(g)
    if ng == 0.0:
        metrics = {"lift_l2": 0.0, "dual_norm": 0.0, "ratio": 0.0}
    else:
        z, _ = lift_divergence(g)
        dual = htilde_norm(g)
        metrics = {
            "lift_l2": face_norm(z),
            "dual_norm": dual,
            "ratio": face_norm(z) / dual if dual > 0 else 0.0,
        }
    return DiagnosticsRecord(time=time, metrics=metrics, provenance="check_weak_lifting_bound")
