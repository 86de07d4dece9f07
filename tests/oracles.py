"""Test oracles: assembled matrices, a dense saddle-point solve and closed forms.

The package steps with matrix-free operators on the grid's own arrays.  The
functions here stack the interior faces into one vector, build the same
operators on it as explicit scipy matrices from the dense 1-D second
differences, solve the Stokes problem through one dense bordered system,
evaluate the wall-relaxation Duhamel integral in closed form and by
quadrature, extrapolate the divergence to the walls and fold the energy
ledger over a whole history, so that the tests can check the package
against an independent construction.  They are the only
users of scipy.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from enslab.ens_jl import EnergyLedger
from enslab.ens_sr import SRState
from enslab.grid import (
    BoundaryTrace, Grid, ScalarField, VectorField, divergence, face_norm, vector_laplacian,
    with_normal_trace,
)
from enslab.linsolve import _check_compatibility, _tridiagonal_eigh
from enslab.stokes_lift import leray_project


# ---------------------------------------------------------------------------
# The interior-face vector: the u faces, then the v faces, wall faces dropped
# ---------------------------------------------------------------------------

def _split(grid: Grid, x: np.ndarray):
    """Views of an interior-face vector as its u and v arrays."""
    n_u = (grid.nx - 1) * grid.ny
    return x[:n_u].reshape(grid.nx - 1, grid.ny), x[n_u:].reshape(grid.nx, grid.ny - 1)


def flatten_interior(w: VectorField) -> np.ndarray:
    """Stack the interior-face values (wall faces dropped) into one vector."""
    return np.concatenate([w.u[1:-1, :].ravel(), w.v[:, 1:-1].ravel()])


def unflatten_interior(grid: Grid, x: np.ndarray, trace: BoundaryTrace | None = None) -> VectorField:
    """Rebuild a vector field from interior values; walls from trace or zero."""
    u = np.zeros(grid.shape_u)
    v = np.zeros(grid.shape_v)
    u[1:-1, :], v[:, 1:-1] = _split(grid, x)
    w = VectorField(grid, u, v)
    return w if trace is None else with_normal_trace(w, trace)


def wall_rhs(grid: Grid, trace: BoundaryTrace) -> np.ndarray:
    """RHS contribution of Dirichlet wall-normal data to K z = -Lap z."""
    h2 = grid.h * grid.h
    b = np.zeros(2 * grid.nx * (grid.nx - 1))
    u, v = _split(grid, b)
    u[0, :] = (-trace.left) / h2
    u[-1, :] = trace.right / h2
    v[:, 0] = (-trace.bottom) / h2
    v[:, -1] = trace.top / h2
    return b


def wall_faces(grid: Grid) -> np.ndarray:
    """U: one row of interior-face indices per wall (bottom, top, left and
    right), the tangential faces next to it."""
    u, v = _split(grid, np.arange(2 * grid.nx * (grid.nx - 1)))
    return np.stack([u[:, 0], u[:, -1], v[0, :], v[-1, :]])


# ---------------------------------------------------------------------------
# Assembled operators on the interior-face and cell vectors
# ---------------------------------------------------------------------------

def _tridiagonal(n: int, h: float, kind: str) -> np.ndarray:
    """Dense 1-D second difference over n cells, of kind "neumann" (zero
    flux, ghost = interior), "cell" (zero wall value, ghost = -interior) or
    "node" (the n - 1 interior nodes, zero data at nodes 0 and n)."""
    m = n - 1 if kind == "node" else n
    t = np.eye(m, k=1) + np.eye(m, k=-1) - 2.0 * np.eye(m)
    t[0, 0] = t[-1, -1] = {"neumann": -1.0, "cell": -3.0, "node": -2.0}[kind]
    return t * (1.0 / (h * h))


def _kron_sum(grid: Grid, kind_x: str, kind_y: str) -> sp.spmatrix:
    """The assembled 2-D Kronecker sum of two 1-D tridiagonals."""
    tx = sp.csr_matrix(_tridiagonal(grid.nx, grid.h, kind_x))
    ty = sp.csr_matrix(_tridiagonal(grid.ny, grid.h, kind_y))
    return sp.kron(tx, sp.identity(ty.shape[0])) + sp.kron(sp.identity(tx.shape[0]), ty)


def laplacian_neumann_matrix(grid: Grid) -> sp.csr_matrix:
    return _kron_sum(grid, "neumann", "neumann").tocsr()


def laplacian_dirichlet_matrix(grid: Grid) -> sp.csr_matrix:
    return _kron_sum(grid, "cell", "cell").tocsr()


def noslip_viscous_matrix(grid: Grid) -> sp.csr_matrix:
    """Minus the no-slip vector Laplacian on interior faces (SPD)."""
    return (-sp.block_diag([_kron_sum(grid, "node", "cell"), _kron_sum(grid, "cell", "node")])).tocsr()


def _cell_difference(n: int) -> sp.spmatrix:
    """Cell j of a grid line reads interior nodes j + 1 and j (the wall nodes are zero)."""
    return sp.eye(n, n - 1) - sp.eye(n, n - 1, k=-1)


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Divergence D on the interior-face vector; the gradient is -D^T."""
    nx, ny = grid.nx, grid.ny
    D = sp.hstack([sp.kron(_cell_difference(nx), sp.identity(ny)),
                   sp.kron(sp.identity(nx), _cell_difference(ny))])
    return (D / grid.h).tocsr()


def curl_matrix(grid: Grid) -> sp.csr_matrix:
    """Curl C of the interior-node stream function onto the interior faces
    (``vector_from_stream`` with zero wall values); D C = 0."""
    nx, ny = grid.nx, grid.ny
    C = sp.vstack([sp.kron(sp.identity(nx - 1), _cell_difference(ny)),
                   -sp.kron(_cell_difference(nx), sp.identity(ny - 1))])
    return (C / grid.h).tocsr()


def dense_stokes_solve(g: ScalarField, boundary_velocity: BoundaryTrace | None = None,
                       alpha: float = 0.0, c: float = 1.0, f: VectorField | None = None):
    """Direct bordered-matrix solve of (alpha I + c K) u + G p = f, D u = g;
    oracle for small grids (<= 16x16).  The defaults are the Stokes lift."""
    grid = g.grid
    if grid.nx > 16:
        raise ValueError("dense oracle restricted to grids of at most 16x16")
    trace = boundary_velocity if boundary_velocity is not None else BoundaryTrace.zeros(grid)
    _check_compatibility(g, trace)
    nf = (grid.nx - 1) * grid.ny + grid.nx * (grid.ny - 1)
    nc = grid.nx * grid.ny
    A = alpha * np.eye(nf) + c * noslip_viscous_matrix(grid).toarray()
    G = -divergence_matrix(grid).toarray().T
    b = c * wall_rhs(grid, trace)
    if f is not None:
        b = b + flatten_interior(f)
    fold = divergence(unflatten_interior(grid, np.zeros(nf), trace)).values.ravel()
    gprime = g.values.ravel() - fold
    # bordered symmetric system: [A G 0; G^T 0 1; 0 1^T 0]
    M = np.zeros((nf + nc + 1, nf + nc + 1))
    M[:nf, :nf] = A
    M[:nf, nf:nf + nc] = G
    M[nf:nf + nc, :nf] = G.T
    M[nf:nf + nc, nf + nc] = 1.0
    M[nf + nc, nf:nf + nc] = 1.0
    rhs = np.zeros(nf + nc + 1)
    rhs[:nf] = b
    rhs[nf:nf + nc] = -gprime
    sol = np.linalg.solve(M, rhs)
    z = unflatten_interior(grid, sol[:nf], trace)
    qv = sol[nf:nf + nc]
    q = ScalarField(grid, (qv - qv.mean()).reshape(grid.shape_cell))
    return z, q


# ---------------------------------------------------------------------------
# Open walls: the Duhamel integral and the wall trace of the divergence
# ---------------------------------------------------------------------------

def duhamel_closed_form(h0: BoundaryTrace, cbars, lam: float, dt: float) -> BoundaryTrace:
    """Compose the exact per-step updates in closed form (piecewise-constant data)."""
    if not (lam > 0.0 and dt > 0.0):
        raise ValueError("need lam > 0 and dt > 0")
    n = len(cbars)
    gain = 1.0 - math.exp(-lam * dt)
    acc = 0.0
    for k, c in enumerate(cbars):
        acc += math.exp(-lam * dt * (n - 1 - k)) * gain * c / lam
    return h0.blend(math.exp(-lam * dt * n), BoundaryTrace.constant(h0.grid, 1.0), acc)


def duhamel_quadrature(h0: BoundaryTrace, times, cbar_samples, lam: float) -> BoundaryTrace:
    """Duhamel value at the final sample time by Simpson quadrature.

    h(T) = e^{-lam (T-t0)} h0 + int_{t0}^{T} e^{-lam (T-s)} cbar(s) ds, with
    cbar(s) sampled (instantaneous form) on the given time grid.
    """
    from scipy.integrate import simpson

    times = np.asarray(times, dtype=np.float64)
    cb = np.asarray(cbar_samples, dtype=np.float64)
    if times.shape != cb.shape or times.size < 3:
        raise ValueError("need matching sample arrays with at least three points")
    T = float(times[-1])
    weights = np.exp(-lam * (T - times))
    val = float(simpson(weights * cb, x=times))
    return h0.blend(math.exp(-lam * (T - float(times[0]))),
                    BoundaryTrace.constant(h0.grid, 1.0), val)


def boundary_divergence_trace(p: ScalarField) -> BoundaryTrace:
    """Quadratically extrapolated wall values of a cell scalar.

    Cell centers sit at distances h/2, 3h/2, 5h/2 from each wall; the
    three-point Lagrange extrapolant to the wall is (15 a - 10 b + 3 c)/8.
    Used to measure the wall trace of the divergence, the discrete content
    of a zero-divergence boundary condition.
    """
    vals = p.values

    def extrap(a, b, c):
        return (15.0 * a - 10.0 * b + 3.0 * c) / 8.0

    return BoundaryTrace(
        p.grid,
        extrap(vals[0, :], vals[1, :], vals[2, :]),
        extrap(vals[-1, :], vals[-2, :], vals[-3, :]),
        extrap(vals[:, 0], vals[:, 1], vals[:, 2]),
        extrap(vals[:, -1], vals[:, -2], vals[:, -3]),
    )


def boundary_divergence_max(s: SRState) -> float:
    """Extrapolated wall trace of div u, the measured boundary-divergence defect.

    The dynamics enforces a zero divergence trace through the Dirichlet ghost
    closure; this diagnostic extrapolates the cell values to the walls and is
    O(h^3) times the divergence amplitude for smooth data, so it is reported
    and asserted by the test suite at configuration-level scales rather than
    gating individual steps.
    """
    return boundary_divergence_trace(s.div_u).max_abs()


# ---------------------------------------------------------------------------
# No-slip energy ledger over a whole history
# ---------------------------------------------------------------------------

def fold_energy_ledger(history):
    """EnergyLedger.record() after add() of every state of history, in order."""
    ledger = EnergyLedger()
    for s in history:
        ledger.add(s)
    return ledger.record()


# ---------------------------------------------------------------------------
# The Galerkin basis, one parity block at a time, checked mode by mode
# ---------------------------------------------------------------------------

def parity_block_basis(grid: Grid, k: int):
    """The k lowest eigenvalues and stream functions of the scaled pencil of
    ``galerkin.build_basis``, from three dense parity blocks (even, even),
    (even, odd) and (odd, odd), assembled with Kronecker products and solved
    whole; the (odd, even) modes are the swaps of the (even, odd) ones.
    Returns (lam, nodes): nodes are the stream functions on all nodes,
    divided by h, signed as ``build_basis`` signs them."""
    n, h = grid.nx, grid.h
    lam, q = _tridiagonal_eigh(n, h, "node")
    odd = np.abs(q[0] - q[-1]) > np.abs(q[0] + q[-1])
    parity = (np.flatnonzero(~odd), np.flatnonzero(odd))
    wall = np.outer(q[0], q[0]) + np.outer(q[-1], q[-1])
    vals, psi = [], []
    for a, b in ((0, 0), (0, 1), (1, 1)):
        ix, iy = parity[a], parity[b]
        d = -(lam[ix, None] + lam[iy]).ravel()
        s = 1.0 / np.sqrt(d)
        block = (np.kron(np.eye(ix.size), wall[np.ix_(iy, iy)])
                 + np.kron(wall[np.ix_(ix, ix)], np.eye(iy.size)))
        block *= (2.0 / h ** 4) * np.outer(s, s)
        block[np.diag_indices_from(block)] += d
        mu, y = np.linalg.eigh(block)
        y = y[:, :k]
        y = y * np.sign(y[np.argmax(np.abs(y), axis=0), np.arange(y.shape[1])])
        coeffs = (s[:, None] * y).T.reshape(-1, ix.size, iy.size)
        vals.append(mu[:k])
        psi.append(q[:, ix] @ coeffs @ q[:, iy].T)
        if a != b:
            vals.append(mu[:k])
            psi.append(psi[-1].transpose(0, 2, 1))
    order = np.argsort(np.concatenate(vals), kind="stable")[:k]
    nodes = np.pad(np.concatenate(psi)[order], ((0, 0), (1, 1), (1, 1))) / h
    return np.concatenate(vals)[order], nodes


def eigen_residual_loop(modes, lam) -> np.ndarray:
    """||P K w_j - lam_j w_j|| of each mode, one field operation at a time."""
    return np.array([face_norm(leray_project(-vector_laplacian(w, "noslip")) - w * float(mu))
                     for w, mu in zip(modes, lam)])
