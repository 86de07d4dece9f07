"""Centered advective transport on the staggered grid and its exact skew part.

The advective form (w . grad) b is evaluated on interior faces (wall faces
of the result are zero): cross components of the advecting velocity are
four-point averages onto the target face, tangential derivatives next to a
wall use the odd-reflection closure consistent with zero tangential velocity
at walls, and wall values of both arguments are read as data.
``transport_coefficients`` and ``centered_differences`` are its two factors.

``skew_advect`` is half the difference of that form and its exact transpose
in the uniform face inner product, so that its trilinear form
<skew_advect(w, b), c> is antisymmetric in the last two slots for every
advecting field w, which is what makes discrete energy ledgers close without
any divergence condition.  It is evaluated in flux-pair form (Morinishi,
Lund, Vasilyev and Moin, J. Comput. Phys. 143, 1998): along the normal of
the u faces,

    4h skew_u[i] = S[i] b[i+1] - S[i-1] b[i-1] + T[j] b[j+1] - T[j-1] b[j-1],

with S the sum of the two normal velocities w.u bounding each cell (wall
faces taken as 0) and T the sum of the two four-point averages of w.v on
neighbouring x-faces.  Terms that reach past a wall are dropped: the wall
rows keep only their S term, and the odd reflection of b cancels the even
one of the transpose exactly.  The v component is the mirror image.
"""

from __future__ import annotations

import numpy as np

from .grid import VectorField, _adopt

__all__ = ["skew_advect", "transport_coefficients", "centered_differences"]


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


def _skew_u(w: VectorField, b: VectorField, out: np.ndarray) -> None:
    """4h times the u component of skew_advect into out.  Every operand is
    read as a flat array: the cells' S pair the rows, and the y-terms run on
    the interior rows, T zeroed where j + 1 wraps onto the next row.  Two
    scratch arrays serve every stage, each reused once spent."""
    wu, wv, bu, n = w.u, w.v, b.u, w.grid.n
    work = np.empty(wu.size)
    s = work[:-n].reshape(n, n)
    np.add(wu[1:-2], wu[2:-1], out=s[1:-1])
    s[0], s[-1] = wu[1], wu[-2]                       # wall faces as 0
    np.multiply(s, bu[1:], out=out[:-1])
    out[-1] = 0.0
    out[1:] -= np.multiply(s, bu[:-1], out=s)
    pair = np.add(wv[:-1], wv[1:], out=work[:wv.size - n - 1].reshape(n - 1, n + 1))
    quad = np.add(pair[:, :-1], pair[:, 1:]).ravel()  # 4 x the four-point average
    t = np.add(quad[:-1], quad[1:], out=work[:quad.size - 1])
    t[n - 1::n] = 0.0
    _tangential_pairs(t, bu[1:-1].ravel(), out[1:-1].ravel(), 1, quad)


def _skew_v(w: VectorField, b: VectorField, out: np.ndarray) -> None:
    """4h times the v component of skew_advect into out, the mirror image of
    _skew_u: the cells' S pair neighbours along the rows, zeroed where c + 1
    wraps onto the next row, and the x-terms pair the rows, T zeroed on the
    wall columns."""
    wv, bv, n = w.v, b.v, w.grid.n
    work = np.empty(wv.size)
    s = np.add(wv.ravel()[:-1], wv.ravel()[1:], out=work[:-1])
    cells = work.reshape(wv.shape)
    cells[:, 0], cells[:, n - 1], cells[:, n] = wv[:, 1], wv[:, n - 1], 0.0
    flat, bf = out.ravel(), bv.ravel()
    np.multiply(s, bf[1:], out=flat[:-1])
    flat[-1] = 0.0
    flat[1:] -= np.multiply(s, bf[:-1], out=s)
    pair = np.empty((n + 1, n + 1))                   # on the interior y-faces' nodes
    np.add(w.u[:, :-1], w.u[:, 1:], out=pair[:, 1:-1])
    pair[:, 0] = pair[:, -1] = 0.0
    quad = np.add(pair[:-1], pair[1:], out=cells)     # 4 x the four-point average
    t = np.add(quad[:-1], quad[1:], out=pair[:-2])
    _tangential_pairs(t.ravel(), bf, flat, n + 1, work)


def _tangential_pairs(t: np.ndarray, b: np.ndarray, out: np.ndarray, k: int,
                      scratch: np.ndarray) -> None:
    """out[i] += T[i] b[i + k] - T[i - k] b[i - k] over flat arrays, with
    T = t / 4; t and the first t.size entries of scratch are spent."""
    t *= 0.25
    m = t.size
    out[:m] += np.multiply(t, b[k:k + m], out=scratch[:m])
    out[k:k + m] -= np.multiply(t, b[:m], out=t)


def skew_advect(w: VectorField, b: VectorField) -> VectorField:
    """Skew-symmetric transport: half the difference of the advective form
    and its transpose, in flux-pair form.

    <skew_advect(w, b), c> = -<skew_advect(w, c), b> for all w, b, c, hence
    <skew_advect(w, b), b> = 0 identically.
    """
    g = w.grid
    if b.grid != g:
        raise ValueError("skew_advect: operands live on different grids")
    su, sv = np.empty(g.shape_u), np.empty(g.shape_v)
    _skew_u(w, b, su)
    _skew_v(w, b, sv)
    scale = 1.0 / (4.0 * g.h)
    su *= scale
    sv *= scale
    return _adopt(VectorField, g, su, sv)
