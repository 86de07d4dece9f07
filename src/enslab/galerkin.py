"""Spectral cross-check: eigenbasis of the Stokes operator P K P on the
divergence-free no-slip subspace (K = -Lap_noslip, P the Leray projector).

Its lowest eigenmodes form an L2-orthonormal basis; expanding the velocity
in that basis turns the flow problem into a small ODE system for the
coefficients,

    g_j' + nu lam_j g_j + sum_rs b(w_r, w_s, w_j) g_r g_s = <f, w_j>,

with f the steady body force, integrated by classical RK4.  The route takes
divergence-free data only, on which the extended system is Navier-Stokes, so
no lift term enters.  The quadratic term is energy-neutral because the
transport form is skew in its last two slots, so the solved system inherits
the exact energy ledger of the full discretization.

The subspace is exactly the range of the stream-function curl C, so the
basis comes from the pencil (C^T K C, C^T C), a sine-diagonal plus a wall
term (Bjorstad 1983), solved by ``stokes_modes`` in five symmetry blocks
(Bossavit 1986): the x and y reflections give the parity blocks, and the
x <-> y swap splits the (even, even) and (odd, odd) ones into symmetric and
antisymmetric halves.  The modes C psi / h are divergence-free by
construction.  Construction checks every mode's eigen-residual in one pass
over the stacked modes, with the grid's and the Leray projection's own
stencils and solve.  The advective part of the transport form is a sum of
products of advecting coefficients and centered differences, so the
coupling tensor is one contraction over the stacked modes.

The transport form is invariant under the square's x and y reflections, and
every mode is symmetric or antisymmetric under both: its reflection class
sets bit 0 when its stream function is odd in x and bit 1 when it is odd in
y.  b(w_r, w_s, w_j) is zero unless the classes of r, s and j XOR to 3, about
a quarter of the triples.  For those the integrand is even about both centre
lines, so ``coupling_tensor`` sums it over one quarter of the faces with
mirror weights, 2 off a centre line and 1 on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .advection import centered_differences, transport_coefficients
from .diagnostics import (
    EIGEN_ORDER_RTOL, EIGEN_RESIDUAL_TOL, GRAM_TOL, PARITY_RTOL,
)
from .errors import CheckFailure, DimensionMismatchError
from .fieldio import ensure_dir, write_vector
from .grid import Grid, VectorField, _line_aligned, _noslip_laplacian
from .linsolve import _cached
from .scenarios import located
from .stokes_lift import _remove_gradient
from .stokes_modes import lowest_modes

__all__ = [
    "GalerkinBasis",
    "GalerkinState",
    "build_basis",
    "save_basis",
    "coupling_tensor",
    "project_onto_basis",
    "reconstruct",
    "integrate_galerkin",
    "galerkin_energy_ledger",
]

# Largest grid of the basis build, whose eigensolves grow as N^6: measured
# at 64 with one BLAS thread; at 128 scaled by the cubes of the block orders
BASIS_GRID_MAX = 64
BASIS_COST = "the basis build takes ~0.45 s at grid 64 and would take ~12 s at grid 128"


def _face_vector(grid: Grid, w: VectorField) -> np.ndarray:
    """All face values of w, u then v, as one vector."""
    if w.grid != grid:
        raise DimensionMismatchError(f"grids differ: {w.grid} vs {grid}")
    return np.concatenate([w.u.ravel(), w.v.ravel()])


def _split(grid: Grid, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (u, v) arrays of face vectors x; leading axes are kept."""
    n_u = grid.shape_u[0] * grid.shape_u[1]
    lead = x.shape[:-1]
    return x[..., :n_u].reshape(lead + grid.shape_u), x[..., n_u:].reshape(lead + grid.shape_v)


def _reflection_classes(grid: Grid, stacked: np.ndarray) -> np.ndarray:
    """The reflection class of each stacked mode: bit 0 set when its stream
    function is odd in x, bit 1 when it is odd in y.  The first mode whose
    part of the other parity exceeds PARITY_RTOL of its norm raises
    CheckFailure."""
    u, v = _split(grid, stacked)
    norm = np.sqrt(np.einsum("ij,ij->i", stacked, stacked))
    classes = np.zeros(len(stacked), dtype=np.intp)
    # a stream function even in x keeps u and negates v under the x flip
    flips = ((u[:, ::-1, :], -v[:, ::-1, :]), (-u[:, :, ::-1], v[:, :, ::-1]))
    for bit, (fu, fv) in enumerate(flips):
        # twice the norms of each mode's even and odd parts
        even, odd = ([np.sqrt(((u + sign * fu) ** 2).sum(axis=(1, 2))
                              + ((v + sign * fv) ** 2).sum(axis=(1, 2)))
                      for sign in (1.0, -1.0)])
        off = 0.5 * np.minimum(even, odd) / norm
        mixed = np.flatnonzero(off > PARITY_RTOL)
        if mixed.size:
            j = int(mixed[0])
            raise CheckFailure(
                f"mode {j} is neither symmetric nor antisymmetric under the "
                f"{'xy'[bit]} reflection: off-parity part {off[j]:.3e} of its norm")
        classes |= (even < odd) << bit
    return classes


def _eigen_residuals(grid: Grid, stacked: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """||P K w_j - lam_j w_j|| of every stacked mode w_j, in one pass.

    P and h^2 K are applied to the whole stack by the grid's and the Leray
    projection's own array routines, and the residual is formed in their
    output arrays: h^2 (P K w_j - lam_j w_j) = -(P h^2 Lap w_j + h^2 lam_j w_j).
    """
    h2 = grid.h * grid.h
    u, v = _split(grid, stacked)
    ru, rv = _noslip_laplacian(u, v)
    _remove_gradient(grid, ru, rv)
    scale = (h2 * lam)[:, None, None]
    ru += scale * u
    rv += scale * v
    sq = np.einsum("jab,jab->j", ru, ru) + np.einsum("jab,jab->j", rv, rv)
    return np.sqrt(sq) / grid.h


@dataclass(frozen=True)
class GalerkinBasis:
    """Lowest eigenpairs of the Stokes operator, L2-orthonormal; ``stacked``
    holds the modes as rows of face vectors, ``gram_deviation`` the measured
    max |<w_i, w_j> - delta_ij| and ``parity`` each mode's reflection class
    (bit 0: stream function odd in x, bit 1: odd in y)."""

    grid: Grid
    lam: np.ndarray
    modes: tuple
    stacked: np.ndarray = field(init=False, repr=False, compare=False)
    gram_deviation: float = field(init=False, repr=False, compare=False)
    parity: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=np.float64).copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "modes", tuple(self.modes))
        if lam.ndim != 1 or len(self.modes) != lam.size or lam.size == 0:
            raise ValueError("need one eigenvalue per mode, at least one mode")
        if not np.all(np.isfinite(lam)) or lam[0] <= 0.0:
            raise ValueError("eigenvalues must be finite and positive")
        if np.any(np.diff(lam) < -EIGEN_ORDER_RTOL * lam[-1]):
            raise ValueError("eigenvalues must be ascending")
        stacked = np.stack([_face_vector(self.grid, w) for w in self.modes])
        stacked.setflags(write=False)
        object.__setattr__(self, "stacked", stacked)
        gram = self.grid.h * self.grid.h * (stacked @ stacked.T)
        dev = np.abs(gram - np.eye(lam.size))
        i, j = np.unravel_index(np.argmax(dev), dev.shape)
        object.__setattr__(self, "gram_deviation", float(dev[i, j]))
        if dev[i, j] > GRAM_TOL:
            raise CheckFailure(
                f"basis not orthonormal: <w_{i}, w_{j}> = {float(gram[i, j])!r}")
        parity = _reflection_classes(self.grid, stacked)
        parity.setflags(write=False)
        object.__setattr__(self, "parity", parity)
        res = _eigen_residuals(self.grid, stacked, lam)
        failed = np.flatnonzero(res > EIGEN_RESIDUAL_TOL * (1.0 + lam))
        if failed.size:
            j = int(failed[0])
            raise CheckFailure(
                f"mode {j} eigen-residual {res[j]:.3e} at eigenvalue {lam[j]:.6g}")

    @property
    def k(self) -> int:
        return int(self.lam.size)


@dataclass(frozen=True)
class GalerkinState:
    """Coefficient vector of the spectral expansion at one time."""

    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.float64).copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty vector")
        if not np.all(np.isfinite(c)):
            raise CheckFailure(f"coefficients grew non-finite (blow-up) at t = {self.time:.6g}")

    @property
    def k(self) -> int:
        return int(self.coeffs.size)


def build_basis(grid: Grid, k: int) -> GalerkinBasis:
    """Compute the k lowest eigenpairs of the Stokes operator, cached by
    grid and k.

    ``stokes_modes.lowest_modes`` solves five symmetry blocks of the scaled
    stream-function pencil: (even, even) swap-symmetric and antisymmetric,
    (even, odd), and (odd, odd) swap-symmetric and antisymmetric.  The
    (odd, even) modes are the x-y swaps of the (even, odd) ones, with
    bit-identical eigenvalues; a k that splits such a twin pair keeps the
    (even, odd) member.  Each eigenvector's largest entry in its parity
    block's coordinates, the first on ties, is made positive, so the modes'
    signs do not depend on the LAPACK build.
    """
    if grid.n > BASIS_GRID_MAX:
        raise ValueError(f"the Galerkin basis needs grid <= {BASIS_GRID_MAX}, got "
                         f"{grid.n}: {BASIS_COST}")
    dim = (grid.n - 1) ** 2
    if not (1 <= k <= dim):
        raise ValueError(f"k = {k} outside the divergence-free subspace dimension {dim}")
    return _cached(("galerkin_basis", grid.n, k),
                   lambda: GalerkinBasis(grid, *lowest_modes(grid, k)))


def save_basis(basis: GalerkinBasis, directory: str) -> None:
    """Write the basis as per-mode field dumps plus an eigenvalue list."""
    ensure_dir(directory)
    with open(os.path.join(directory, "lambda.txt"), "w", encoding="ascii") as f:
        f.writelines(f"{float(lam):.17g}\n" for lam in basis.lam)
    for j, w in enumerate(basis.modes):
        write_vector(os.path.join(directory, f"mode_{j:03d}"), w, 0.0)


def _mirror_weights(m: int) -> np.ndarray:
    """Weights of the first half of m points mirrored about their centre:
    2 for each mirrored pair, 1 for a centre point (m odd)."""
    w = np.full((m + 1) // 2, 2.0)
    if m % 2:
        w[-1] = 1.0
    return w


def coupling_tensor(basis: GalerkinBasis) -> np.ndarray:
    """T[r, s, j] = b(w_r, w_s, w_j) = (A[r, s, j] - A[r, j, s]) / 2 for all
    basis triples, A[r, s, j] the products of w_r's advecting coefficients
    and w_s's centered differences summed against w_j.

    A[r, s, j] is summed only where parity[r] ^ parity[s] ^ parity[j] == 3,
    over the lower-left quarter of the interior faces with mirror weights
    (see the module docstring); every other entry is exactly 0.
    """
    grid = basis.grid
    # the quarter and the neighbours its differences and averages read
    cut = (..., slice(None, (grid.n + 1) // 2 + 2), slice(None, (grid.n + 1) // 2 + 2))
    u, v = (p[cut] for p in _split(grid, basis.stacked))
    weights = np.outer(_mirror_weights(grid.n - 1), _mirror_weights(grid.n))
    mx, my = weights.shape  # the x-faces' quarter; the y-faces' is (my, mx)
    xq, yq = (..., slice(mx), slice(my)), (..., slice(my), slice(mx))

    def flat(parts) -> np.ndarray:
        return np.concatenate([p.reshape(p.shape[0], -1) for p in parts], axis=1)

    def quarter(parts) -> np.ndarray:
        return flat((parts[0][xq], parts[1][xq], parts[2][yq], parts[3][yq]))
    a = quarter(transport_coefficients(u, v))
    d = quarter(centered_differences(u, v, grid.h))
    cu, cv = u[:, 1:-1, :][xq] * weights, v[:, :, 1:-1][yq] * weights.T
    c = flat((cu, cu, cv, cv))
    h2 = grid.h * grid.h
    blocks = [np.flatnonzero(basis.parity == cls) for cls in range(4)]
    A = np.zeros((basis.k,) * 3)
    # One workspace, sized for the largest pair of classes, holds each
    # product.  It and each class's rows of c start on a 64-byte line: a
    # vector store or product operand off the line spans two lines, and the
    # loop then runs up to ~40% slower.
    m = c.shape[1]
    work = _line_aligned(max(r.size for r in blocks) ** 2 * m)
    cc = [np.take(c, j, axis=0, out=_line_aligned(j.size * m).reshape(j.size, m))
          for j in blocks]
    for cr, r in enumerate(blocks):
        for cb, s in enumerate(blocks):
            cj = 3 ^ cr ^ cb
            j = blocks[cj]
            prod = work[:r.size * s.size * m].reshape(r.size, s.size, m)
            np.multiply(a[r, None, :], d[None, s, :], out=prod)
            A[np.ix_(r, s, j)] = h2 * (prod.reshape(r.size * s.size, m) @ cc[cj].T).reshape(
                r.size, s.size, j.size)
    # T takes the operands' heap space once they are freed; allocated above
    # them, it left that space to be trimmed, and each call faulted it in
    # again (478 pages at N = 32 with 32 modes, against 0)
    del a, d, c, cc, work, prod
    # every step's product reads T: on a 64-byte line its speed does not
    # depend on where the heap happens to place it
    T = np.subtract(A, A.transpose(0, 2, 1), out=_line_aligned(A.size).reshape(A.shape))
    T *= 0.5
    return T


def project_onto_basis(basis: GalerkinBasis, u: VectorField) -> GalerkinState:
    """The coefficients of u; ones that overflow fail GalerkinState's check."""
    h2 = basis.grid.h * basis.grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        return GalerkinState(h2 * (basis.stacked @ _face_vector(basis.grid, u)), 0.0)


def reconstruct(basis: GalerkinBasis, state: GalerkinState) -> VectorField:
    if state.k != basis.k:
        raise ValueError(f"state has {state.k} coefficients, basis {basis.k} modes")
    return VectorField(basis.grid, *_split(basis.grid, state.coeffs @ basis.stacked))


def integrate_galerkin(basis: GalerkinBasis, state: GalerkinState, nu: float,
                       dt: float, nsteps: int, forcing: VectorField | None = None) -> list:
    """RK4 trajectory of the spectral ODE system: state, then nsteps states dt
    apart; the body force ``forcing`` is projected once."""
    if not (nu > 0.0 and dt > 0.0 and nsteps >= 1):
        raise ValueError("need nu > 0, dt > 0, nsteps >= 1")
    if state.k != basis.k:
        raise ValueError(f"state has {state.k} coefficients, basis {basis.k} modes")
    k = basis.k
    decay = -nu * basis.lam
    quadratic = coupling_tensor(basis).reshape(k, k * k)
    fvec = None if forcing is None else project_onto_basis(basis, forcing).coeffs

    def rhs(g: np.ndarray) -> np.ndarray:
        out = decay * g - g @ (g @ quadratic).reshape(k, k)
        if fvec is not None:
            out += fvec
        return out

    history = [state]
    g = state.coeffs.copy()
    t = state.time
    # a blow-up is reported by GalerkinState, not by floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, nsteps + 1):
            k1 = rhs(g)
            k2 = rhs(g + 0.5 * dt * k1)
            k3 = rhs(g + 0.5 * dt * k2)
            k4 = rhs(g + dt * k3)
            g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            try:
                history.append(GalerkinState(g, t + dt))
            except CheckFailure:  # formatted only when a step fails, as in march
                with located(f"step {n}, t = {t:.6g}"):
                    raise
            t += dt
    return history


def galerkin_energy_ledger(basis: GalerkinBasis, trajectory, nu: float, dt: float,
                           forcing: VectorField | None = None) -> dict:
    """Energy-ledger audit of a trajectory with Simpson quadrature per step pair.

    The identity (d/dt) E + nu ||grad v||^2 = <f, v> is integrated over each
    two-step window; the reported imbalance rate is the worst window defect
    per unit time, O(dt^4) for the RK4 trajectory.  A non-finite defect is a
    CheckFailure naming the time its window ends.
    """
    states = list(trajectory)
    if len(states) < 3:
        raise ValueError("need at least three states (two steps)")
    g = np.stack([s.coeffs for s in states])
    # the identity integrates to E(t2) - E(t0) + int(G - R) dt = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite defect is judged below
        E = 0.5 * np.einsum("ij,ij->i", g, g)
        net = nu * (g * g) @ basis.lam
        if forcing is not None:
            fvec = project_onto_basis(basis, forcing).coeffs
            net -= np.array([float(fvec @ s.coeffs) for s in states])
        defect = np.abs((E[2:] - E[:-2]) + (dt / 3.0) * (net[:-2] + 4.0 * net[1:-1] + net[2:]))
    bad = np.flatnonzero(~np.isfinite(defect))
    if bad.size:
        raise CheckFailure(
            f"non-finite energy ledger defect at t = {states[bad[0] + 2].time:.6g}")
    worst = float(defect.max())
    return {
        "imbalance_max": worst,
        "imbalance_rate_max": worst / (2.0 * dt),
        "energy_initial": float(E[0]),
        "energy_final": float(E[-1]),
    }
