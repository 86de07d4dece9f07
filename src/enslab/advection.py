"""Centered advective transport on the staggered grid and its exact skew part.

``advect(w, b)`` is the advective-form transport (w . grad) b evaluated on
interior faces (wall faces of the result are zero).  Cross components of the
advecting velocity are four-point averages onto the target face; tangential
derivatives next to a wall use the odd-reflection closure consistent with
zero tangential velocity at walls.  Wall values of both arguments are read as
data.

``adjoint_advect(w, c)`` is the exact transpose of ``advect(w, .)`` in the
uniform face inner product, derived stencil by stencil (including the
odd-reflection feedback and the wall-face couplings), so that

    <advect(w, b), c> = <b, adjoint_advect(w, c)>   for all b, c.

``skew_advect`` is the skew-symmetric half-difference; its trilinear form is
antisymmetric in the last two slots for every advecting field w, which is
what makes discrete energy ledgers close without any divergence condition.
"""

from __future__ import annotations

import numpy as np

from .grid import VectorField, _adopt, face_inner

__all__ = ["advect", "adjoint_advect", "skew_advect", "trilinear",
           "transport_coefficients", "centered_differences"]


def transport_coefficients(u: np.ndarray, v: np.ndarray) -> tuple:
    """Advecting coefficients of (u, v): u and the four-point v average on
    the interior x-faces, the four-point u average and v on the interior
    y-faces.  Leading axes index a stack of fields."""
    vy = 0.25 * (v[..., :-1, :-1] + v[..., 1:, :-1] + v[..., :-1, 1:] + v[..., 1:, 1:])
    ux = 0.25 * (u[..., :-1, :-1] + u[..., :-1, 1:] + u[..., 1:, :-1] + u[..., 1:, 1:])
    return u[..., 1:-1, :], vy, ux, v[..., 1:-1]


def centered_differences(u: np.ndarray, v: np.ndarray, h: float) -> tuple:
    """Centered d/dx, d/dy of u on the interior x-faces and of v on the
    interior y-faces, in the order ``transport_coefficients`` pairs them
    with; odd reflection at the walls, leading axes index a stack of fields."""
    h2 = 2.0 * h
    dxu = (u[..., 2:, :] - u[..., :-2, :]) / h2
    ub = np.concatenate([-u[..., 1:-1, :1], u[..., 1:-1, :], -u[..., 1:-1, -1:]], axis=-1)
    dyu = (ub[..., 2:] - ub[..., :-2]) / h2
    vb = np.concatenate([-v[..., :1, 1:-1], v[..., :, 1:-1], -v[..., -1:, 1:-1]], axis=-2)
    dxv = (vb[..., 2:, :] - vb[..., :-2, :]) / h2
    dyv = (v[..., 2:] - v[..., :-2]) / h2
    return dxu, dyu, dxv, dyv


def _advect(w: VectorField, coeffs: tuple, b: VectorField) -> tuple:
    """The arrays of advect(w, b), given coeffs = transport_coefficients of w."""
    g = w.grid
    if b.grid != g:
        raise ValueError("advect: operands live on different grids")
    wu, wy, wx, wv = coeffs
    dxu, dyu, dxv, dyv = centered_differences(b.u, b.v, g.h)
    au = np.zeros(g.shape_u)
    av = np.zeros(g.shape_v)
    au[1:-1, :] = wu * dxu + wy * dyu
    av[:, 1:-1] = wx * dxv + wv * dyv
    return au, av


def _adjoint_advect(w: VectorField, coeffs: tuple, c: VectorField) -> tuple:
    """The arrays of adjoint_advect(w, c), given coeffs = transport_coefficients of w."""
    g = w.grid
    if c.grid != g:
        raise ValueError("adjoint_advect: operands live on different grids")
    wu, wy, wx, wv = coeffs
    h2 = 2.0 * g.h

    # Each product is written into the interior of a buffer whose edges
    # carry the closure (zero across the walls, the edge value along them),
    # so the neighbours are read as shifted slices of one array.

    # u-component output
    nx, ny = g.nx, g.ny
    pp = np.empty((nx + 3, ny))
    pp[[0, 1, -2, -1], :] = 0.0
    np.multiply(wu, c.u[1:-1, :], out=pp[2:-2, :])
    atu = (pp[:-2, :] - pp[2:, :]) / h2
    qq = np.empty((nx - 1, ny + 2))
    np.multiply(wy, c.u[1:-1, :], out=qq[:, 1:-1])
    qq[:, 0], qq[:, -1] = qq[:, 1], qq[:, -2]
    atu[1:-1, :] += (qq[:, :-2] - qq[:, 2:]) / h2

    # v-component output
    pp2 = np.empty((nx, ny + 3))
    pp2[:, [0, 1, -2, -1]] = 0.0
    np.multiply(wv, c.v[:, 1:-1], out=pp2[:, 2:-2])
    atv = (pp2[:, :-2] - pp2[:, 2:]) / h2
    qq2 = np.empty((nx + 2, ny - 1))
    np.multiply(wx, c.v[:, 1:-1], out=qq2[1:-1, :])
    qq2[0, :], qq2[-1, :] = qq2[1, :], qq2[-2, :]
    atv[:, 1:-1] += (qq2[:-2, :] - qq2[2:, :]) / h2
    return atu, atv


def advect(w: VectorField, b: VectorField) -> VectorField:
    """Advective form (w . grad) b on interior faces; wall faces are zero."""
    return _adopt(VectorField, w.grid, *_advect(w, transport_coefficients(w.u, w.v), b))


def adjoint_advect(w: VectorField, c: VectorField) -> VectorField:
    """Exact transpose of ``advect(w, .)``; wall faces of the result carry
    the couplings through which ``advect`` reads wall data."""
    return _adopt(VectorField, w.grid, *_adjoint_advect(w, transport_coefficients(w.u, w.v), c))


def skew_advect(w: VectorField, b: VectorField) -> VectorField:
    """Skew-symmetric transport: half the difference of form and transpose.

    <skew_advect(w, b), c> = -<skew_advect(w, c), b> for all w, b, c, hence
    <skew_advect(w, b), b> = 0 identically.  The transport coefficients of w
    are computed once for both halves.
    """
    coeffs = transport_coefficients(w.u, w.v)
    (fu, fv), (bu, bv) = _advect(w, coeffs, b), _adjoint_advect(w, coeffs, b)
    return _adopt(VectorField, w.grid, 0.5 * (fu - bu), 0.5 * (fv - bv))


def trilinear(w: VectorField, b: VectorField, c: VectorField) -> float:
    """The trilinear energy-exchange form <skew_advect(w, b), c>."""
    return face_inner(skew_advect(w, b), c)
