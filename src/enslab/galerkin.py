"""Spectral cross-check: eigenbasis of the projected viscous operator.

The divergence-free no-slip subspace carries a discrete Stokes operator
A = P (-Lap) P, with P the discrete Leray projector.  Its lowest eigenmodes
form an L2-orthonormal basis; expanding the velocity in that basis turns the
flow problem into a small ODE system for the coefficients,

    g_j' + nu lam_j g_j + sum_rs b(w_r, w_s, w_j) g_r g_s
        = <f, w_j> - sum_r [b(w_r, z, w_j) + b(z, w_r, w_j)] g_r,

integrated by classical RK4.  The quadratic term is energy-neutral because
the transport form is skew in its last two slots, so the solved system
inherits the exact energy ledger of the full discretization.

Basis construction is dense (small grids by contract): the projector is
assembled column-wise from the factored Poisson solve, the complement of the
divergence-free subspace is shifted far up the spectrum, and the lowest
eigenpairs are read off a symmetric dense eigensolve, then re-projected and
re-orthonormalized in the face inner product.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .advection import skew_advect, trilinear
from .diagnostics import DiagnosticsRecord
from .errors import CheckFailure, SolverError
from .fieldio import ensure_dir, read_vector, write_vector
from .grid import (
    Grid,
    VectorField,
    face_inner,
    face_norm,
    grad_inner,
    vector_laplacian,
)
from .linsolve import (
    divergence_matrix,
    laplacian_neumann_matrix,
    noslip_viscous_matrix,
    unflatten_interior,
)
from .stokes_lift import leray_project

__all__ = [
    "GalerkinBasis",
    "GalerkinState",
    "build_basis",
    "save_basis",
    "load_basis",
    "load_or_build",
    "trilinear_b",
    "coupling_tensor",
    "lift_tensors",
    "project_onto_basis",
    "reconstruct",
    "integrate_galerkin",
    "galerkin_energy_ledger",
]

_COMPLEMENT_SHIFT = 5000.0
_GRAM_TOL = 1e-10
_EIGEN_RESIDUAL_TOL = 1e-8

_memo_lock = threading.Lock()
_basis_memo: dict = {}


@dataclass(frozen=True)
class GalerkinBasis:
    """Lowest eigenpairs of the projected viscous operator, L2-orthonormal."""

    grid: Grid
    lam: np.ndarray
    modes: tuple

    def __post_init__(self) -> None:
        lam = np.asarray(self.lam, dtype=np.float64).copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "modes", tuple(self.modes))
        if lam.ndim != 1 or len(self.modes) != lam.size or lam.size == 0:
            raise ValueError("need one eigenvalue per mode, at least one mode")
        if not np.all(np.isfinite(lam)) or lam[0] <= 0.0:
            raise ValueError("eigenvalues must be finite and positive")
        if np.any(np.diff(lam) < -1e-9 * lam[-1]):
            raise ValueError("eigenvalues must be ascending")
        k = lam.size
        for j, w in enumerate(self.modes):
            if w.grid != self.grid:
                raise ValueError("mode grid mismatch")
            for i in range(j + 1):
                gram = face_inner(self.modes[i], w)
                target = 1.0 if i == j else 0.0
                if abs(gram - target) > _GRAM_TOL:
                    raise CheckFailure(
                        f"basis not orthonormal: <w_{i}, w_{j}> = {gram!r}")
        for j, w in enumerate(self.modes):
            aw = leray_project(-vector_laplacian(w, "noslip"))
            res = face_norm(aw - w * float(lam[j]))
            if res > _EIGEN_RESIDUAL_TOL * (1.0 + float(lam[j])):
                raise CheckFailure(
                    f"mode {j} eigen-residual {res:.3e} at eigenvalue {lam[j]:.6g}")

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
            raise CheckFailure("coefficients grew non-finite (blow-up)")

    @property
    def k(self) -> int:
        return int(self.coeffs.size)


def _leray_matrix(grid: Grid) -> np.ndarray:
    """Dense matrix of the discrete Leray projector on interior faces."""
    import scipy.sparse.linalg as spla

    D = divergence_matrix(grid)
    mat = laplacian_neumann_matrix(grid).tolil()
    mat[0, :] = 0.0
    mat[0, 0] = 1.0
    lu = spla.splu(mat.tocsc())
    B = D.toarray()
    B -= B.mean(axis=0, keepdims=True)
    B[0, :] = 0.0
    X = lu.solve(B)
    X -= X.mean(axis=0, keepdims=True)
    # leray(u) = u - grad(phi), and the euclidean gradient matrix is -D^T
    return np.eye(D.shape[1]) + D.T @ X


def build_basis(grid: Grid, k: int) -> GalerkinBasis:
    """Compute the k lowest eigenpairs of the projected viscous operator."""
    if grid.nx > 32 or grid.ny > 32:
        raise ValueError("dense eigensolve budget: grid must be at most 32x32")
    n = (grid.nx - 1) * grid.ny + grid.nx * (grid.ny - 1)
    dim_free = n - (grid.nx * grid.ny - 1)
    if not (1 <= k <= dim_free):
        raise ValueError(
            f"k = {k} outside the divergence-free subspace dimension {dim_free}")
    key = (grid.nx, grid.ny, k)
    with _memo_lock:
        hit = _basis_memo.get(key)
    if hit is not None:
        return hit
    P = _leray_matrix(grid)
    K = noslip_viscous_matrix(grid)
    A = P.T @ (K @ P)
    A += _COMPLEMENT_SHIFT * (np.eye(n) - P)
    A = 0.5 * (A + A.T)
    vals, vecs = sla.eigh(A, subset_by_index=[0, k - 1])
    if not np.all(np.isfinite(vals)):
        raise SolverError("eigensolver returned non-finite eigenvalues")
    if vals[-1] > 0.5 * _COMPLEMENT_SHIFT:
        raise SolverError(
            "requested modes reach the shifted complement; k too large for the shift")
    modes: list[VectorField] = []
    lams: list[float] = []
    for j in range(k):
        w = leray_project(unflatten_interior(grid, vecs[:, j]))
        for prev in modes:
            w = w - prev * face_inner(prev, w)
        nrm = face_norm(w)
        if nrm <= 1e-8:
            raise SolverError(f"mode {j} collapsed under re-orthogonalization")
        w = w * (1.0 / nrm)
        modes.append(w)
        lams.append(grad_inner(w, w))
    order = np.argsort(lams, kind="stable")
    basis = GalerkinBasis(grid, np.array([lams[i] for i in order]),
                          tuple(modes[i] for i in order))
    with _memo_lock:
        return _basis_memo.setdefault(key, basis)


def save_basis(basis: GalerkinBasis, directory: str) -> None:
    """Write the basis as per-mode field dumps plus an eigenvalue list."""
    ensure_dir(directory)
    with open(os.path.join(directory, "lambda.txt"), "w", encoding="ascii") as f:
        for lam in basis.lam:
            f.write(f"{float(lam):.17g}\n")
    for j, w in enumerate(basis.modes):
        write_vector(os.path.join(directory, f"mode_{j:03d}"), w, 0.0)


def load_basis(directory: str, k: int | None = None) -> GalerkinBasis:
    """Read a cached basis; validation re-runs in the constructor."""
    path = os.path.join(directory, "lambda.txt")
    with open(path, encoding="ascii") as f:
        lams = [float(line) for line in f if line.strip()]
    if k is None:
        k = len(lams)
    if k > len(lams):
        raise ValueError(f"cache holds {len(lams)} modes, requested {k}")
    modes = []
    grid = None
    for j in range(k):
        w, _ = read_vector(os.path.join(directory, f"mode_{j:03d}"))
        grid = w.grid
        modes.append(w)
    return GalerkinBasis(grid, np.array(lams[:k]), tuple(modes))


def load_or_build(grid: Grid, k: int, cache_dir: str | None = None) -> GalerkinBasis:
    """Use the cache when it covers (grid, k); build and refresh it otherwise."""
    if cache_dir is not None and os.path.exists(os.path.join(cache_dir, "lambda.txt")):
        try:
            basis = load_basis(cache_dir)
            if basis.grid == grid and basis.k >= k:
                if basis.k == k:
                    return basis
                return GalerkinBasis(grid, basis.lam[:k], basis.modes[:k])
        except (OSError, ValueError, CheckFailure):
            pass
    basis = build_basis(grid, k)
    if cache_dir is not None:
        save_basis(basis, cache_dir)
    return basis


def trilinear_b(u: VectorField, v: VectorField, w: VectorField) -> float:
    """Skew transport form: the pairing of (u . grad) v against w."""
    return trilinear(u, v, w)


def coupling_tensor(basis: GalerkinBasis) -> np.ndarray:
    """T[r, s, j] = b(w_r, w_s, w_j) for all basis triples."""
    k = basis.k
    T = np.zeros((k, k, k))
    for r in range(k):
        for s in range(k):
            field = skew_advect(basis.modes[r], basis.modes[s])
            for j in range(k):
                T[r, s, j] = face_inner(field, basis.modes[j])
    return T


def lift_tensors(basis: GalerkinBasis, z: VectorField) -> tuple[np.ndarray, np.ndarray]:
    """B1[r, j] = b(w_r, z, w_j) and B2[r, j] = b(z, w_r, w_j)."""
    k = basis.k
    B1 = np.zeros((k, k))
    B2 = np.zeros((k, k))
    for r in range(k):
        f1 = skew_advect(basis.modes[r], z)
        f2 = skew_advect(z, basis.modes[r])
        for j in range(k):
            B1[r, j] = face_inner(f1, basis.modes[j])
            B2[r, j] = face_inner(f2, basis.modes[j])
    return B1, B2


def project_onto_basis(basis: GalerkinBasis, u: VectorField) -> GalerkinState:
    return GalerkinState(np.array([face_inner(u, w) for w in basis.modes]), 0.0)


def reconstruct(basis: GalerkinBasis, state: GalerkinState) -> VectorField:
    if state.k != basis.k:
        raise ValueError(f"state has {state.k} coefficients, basis {basis.k} modes")
    out = VectorField.zeros(basis.grid)
    for gj, w in zip(state.coeffs, basis.modes):
        out = out + w * float(gj)
    return out


def _forcing_vector(basis: GalerkinBasis, f_path, t: float) -> np.ndarray:
    if f_path is None:
        return np.zeros(basis.k)
    field = f_path(t)
    if field is None:
        return np.zeros(basis.k)
    return np.array([face_inner(field, w) for w in basis.modes])


def _lift_matrix(basis: GalerkinBasis, z_path, t: float) -> np.ndarray | None:
    if z_path is None:
        return None
    z = z_path(t)
    if z is None:
        return None
    B1, B2 = lift_tensors(basis, z)
    return B1 + B2


def integrate_galerkin(basis: GalerkinBasis, state: GalerkinState, nu: float,
                       dt: float, T: float, z_path=None, f_path=None,
                       tensor: np.ndarray | None = None) -> list:
    """RK4 trajectory of the spectral ODE system from state.time to +T."""
    if not (nu > 0.0 and dt > 0.0 and T >= dt):
        raise ValueError("need nu > 0, dt > 0, T >= dt")
    if state.k != basis.k:
        raise ValueError(f"state has {state.k} coefficients, basis {basis.k} modes")
    nsteps = round(T / dt)
    if abs(nsteps * dt - T) > 1e-9 * max(1.0, T):
        raise ValueError("T must be an integer multiple of dt")
    if tensor is None:
        tensor = coupling_tensor(basis)
    lam = basis.lam

    def rhs(t: float, g: np.ndarray, fvec: np.ndarray, bmat) -> np.ndarray:
        out = -nu * lam * g - np.einsum("rsj,r,s->j", tensor, g, g) + fvec
        if bmat is not None:
            out = out - g @ bmat
        return out

    history = [state]
    g = state.coeffs.copy()
    t = state.time
    for _ in range(nsteps):
        f0 = _forcing_vector(basis, f_path, t)
        fh = _forcing_vector(basis, f_path, t + 0.5 * dt)
        f1 = _forcing_vector(basis, f_path, t + dt)
        b0 = _lift_matrix(basis, z_path, t)
        bh = _lift_matrix(basis, z_path, t + 0.5 * dt)
        b1 = _lift_matrix(basis, z_path, t + dt)
        k1 = rhs(t, g, f0, b0)
        k2 = rhs(t + 0.5 * dt, g + 0.5 * dt * k1, fh, bh)
        k3 = rhs(t + 0.5 * dt, g + 0.5 * dt * k2, fh, bh)
        k4 = rhs(t + dt, g + dt * k3, f1, b1)
        g = g + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += dt
        history.append(GalerkinState(g, t))
    return history


def galerkin_energy_ledger(basis: GalerkinBasis, trajectory, nu: float, dt: float,
                           z_path=None, f_path=None) -> DiagnosticsRecord:
    """Energy-ledger audit of a trajectory with Simpson quadrature per step pair.

    The identity (d/dt) E + nu ||grad v||^2 = <f, v> - b(v, z, v) - b(z, v, v)
    is integrated over each two-step window; the reported imbalance rate is
    the worst window defect per unit time, O(dt^4) for the RK4 trajectory.
    Also records the finite-difference velocity-derivative norms that the
    smooth-data boundedness check consumes.
    """
    states = list(trajectory)
    if len(states) < 3:
        raise ValueError("need at least three states (two steps)")
    lam = basis.lam
    n = len(states) - 1
    E = np.empty(n + 1)
    G = np.empty(n + 1)
    R = np.empty(n + 1)
    for i, s in enumerate(states):
        g = s.coeffs
        E[i] = 0.5 * float(g @ g)
        G[i] = nu * float(lam @ (g * g))
        fvec = _forcing_vector(basis, f_path, s.time)
        val = float(fvec @ g)
        bmat = _lift_matrix(basis, z_path, s.time)
        if bmat is not None:
            val -= float(g @ bmat @ g)
        R[i] = val
    # the identity integrates to E(t2) - E(t0) + int(G - R) dt = 0
    worst = 0.0
    for i in range(n - 1):
        simpson = (dt / 3.0) * (
            (G[i] - R[i]) + 4.0 * (G[i + 1] - R[i + 1]) + (G[i + 2] - R[i + 2]))
        worst = max(worst, abs((E[i + 2] - E[i]) + simpson))
    dvdt_max = 0.0
    grad_dvdt_max = 0.0
    for i in range(1, n):
        gp = (states[i + 1].coeffs - states[i - 1].coeffs) / (2.0 * dt)
        dvdt_max = max(dvdt_max, math.sqrt(float(gp @ gp)))
        grad_dvdt_max = max(grad_dvdt_max, math.sqrt(float(lam @ (gp * gp))))
    return DiagnosticsRecord(states[-1].time, {
        "imbalance_max": worst,
        "imbalance_rate_max": worst / (2.0 * dt),
        "energy_initial": E[0],
        "energy_final": E[-1],
        "dvdt_max": dvdt_max,
        "grad_dvdt_max": grad_dvdt_max,
    }, "galerkin.energy_ledger")
