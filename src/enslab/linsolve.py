"""Linear solvers shared by every elliptic subproblem.

Contents
--------
* Assembled operators on the interior-face and cell vectors: the scalar
  Laplacians, the no-slip viscous block K = -Lap_noslip and the divergence D;
  the gradient is G = -D^T.
* Cached sparse factorizations (SuperLU) of the scalar operators: the
  zero-flux ``NeumannPoisson`` solve (pinned at one cell, exact for
  compatible right-hand sides), the heat matrices and the dual-norm
  realization.
* ``GeneralizedStokes``: (alpha I + c K) u + G p = f, D u = g with wall-normal
  velocity data.  Preconditioned conjugate gradient on the pressure Schur
  complement D (alpha I + c K)^{-1} D^T with the Cahouet-Chabard
  preconditioner c I + alpha (-Lap_N)^{-1}; the velocity block is inverted
  exactly by diagonalizing it in the eigenbases of the 1-D Dirichlet
  tridiagonals (two small dense eigensolves per grid, four matrix products
  per component per solve).  alpha = 0 is the stationary Stokes lift,
  alpha = 1 the viscous step on the divergence-free subspace.
* ``NoslipHelmholtz``: the velocity block alone at alpha = 1, with wall data.
* ``dense_stokes_solve``: direct bordered-matrix oracle for small grids, the
  reference the tests compare against.

All solvers are reentrant: a solve owns its workspace, and the factor cache
is append-only keyed by immutable tuples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CompatibilityError, SolverError
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    divergence,
    integral,
    scalar_norm,
)

__all__ = [
    "STOKES_TOL",
    "STOKES_MAX_ITER",
    "SolveReport",
    "GeneralizedStokes",
    "generalized_stokes",
    "NeumannPoisson",
    "neumann_poisson",
    "htilde_solver",
    "heat_solver",
    "NoslipHelmholtz",
    "flatten_interior",
    "unflatten_interior",
    "dense_stokes_solve",
    "divergence_matrix",
    "laplacian_neumann_matrix",
    "laplacian_dirichlet_matrix",
    "noslip_viscous_matrix",
]

# Relative divergence residual at which a generalized-Stokes solve stops,
# and its iteration cap.  The Schur iteration count is nearly independent of
# h, alpha and c (12-20 for N = 64..256), so the cap is reached only by a
# solve that has stopped converging.
STOKES_TOL = 1e-12
STOKES_MAX_ITER = 100


# ---------------------------------------------------------------------------
# 1D stencil blocks and 2D assemblies
# ---------------------------------------------------------------------------

def _tridiag(n: int, end_diag: float, h: float) -> sp.csr_matrix:
    main = np.full(n, -2.0)
    main[0] = end_diag
    main[-1] = end_diag
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


def _t_neumann(n: int, h: float) -> sp.csr_matrix:
    return _tridiag(n, -1.0, h)          # ghost = interior


def _t_dirichlet_cell(n: int, h: float) -> sp.csr_matrix:
    return _tridiag(n, -3.0, h)          # ghost = -interior


def _t_dirichlet_node(n: int, h: float) -> sp.csr_matrix:
    # interior nodes 1..n-1 with zero data at nodes 0 and n
    m = n - 1
    main = np.full(m, -2.0)
    off = np.ones(m - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


def laplacian_neumann_matrix(grid: Grid) -> sp.csr_matrix:
    tx = _t_neumann(grid.nx, grid.h)
    ty = _t_neumann(grid.ny, grid.h)
    return (sp.kron(tx, sp.identity(grid.ny)) + sp.kron(sp.identity(grid.nx), ty)).tocsr()


def laplacian_dirichlet_matrix(grid: Grid) -> sp.csr_matrix:
    tx = _t_dirichlet_cell(grid.nx, grid.h)
    ty = _t_dirichlet_cell(grid.ny, grid.h)
    return (sp.kron(tx, sp.identity(grid.ny)) + sp.kron(sp.identity(grid.nx), ty)).tocsr()


def noslip_viscous_matrix(grid: Grid) -> sp.csr_matrix:
    """Minus the no-slip vector Laplacian on interior faces (SPD)."""
    nx, ny, h = grid.nx, grid.ny, grid.h
    au = sp.kron(_t_dirichlet_node(nx, h), sp.identity(ny)) + sp.kron(
        sp.identity(nx - 1), _t_dirichlet_cell(ny, h))
    av = sp.kron(_t_dirichlet_cell(nx, h), sp.identity(ny - 1)) + sp.kron(
        sp.identity(nx), _t_dirichlet_node(ny, h))
    return (-sp.block_diag([au, av])).tocsr()


def divergence_matrix(grid: Grid) -> sp.csr_matrix:
    """Divergence D on the interior-face vector; the gradient is -D^T."""
    nx, ny, h = grid.nx, grid.ny, grid.h
    n_u = (nx - 1) * ny
    iu, ju = np.meshgrid(np.arange(1, nx), np.arange(ny), indexing="ij")
    cu = ((iu - 1) * ny + ju).ravel()
    rows_u_plus = ((iu - 1) * ny + ju).ravel()
    rows_u_minus = (iu * ny + ju).ravel()
    iv, jv = np.meshgrid(np.arange(nx), np.arange(1, ny), indexing="ij")
    cv = n_u + (iv * (ny - 1) + (jv - 1)).ravel()
    rows_v_plus = (iv * ny + (jv - 1)).ravel()
    rows_v_minus = (iv * ny + jv).ravel()
    rows = np.concatenate([rows_u_plus, rows_u_minus, rows_v_plus, rows_v_minus])
    cols = np.concatenate([cu, cu, cv, cv])
    data = np.concatenate([
        np.full(cu.size, 1.0 / h), np.full(cu.size, -1.0 / h),
        np.full(cv.size, 1.0 / h), np.full(cv.size, -1.0 / h),
    ])
    n = n_u + nx * (ny - 1)
    return sp.coo_matrix((data, (rows, cols)), shape=(nx * ny, n)).tocsr()


def flatten_interior(w: VectorField) -> np.ndarray:
    """Stack the interior-face values (wall faces dropped) into one vector."""
    return np.concatenate([w.u[1:-1, :].ravel(), w.v[:, 1:-1].ravel()])


def unflatten_interior(grid: Grid, x: np.ndarray, trace: BoundaryTrace | None = None) -> VectorField:
    """Rebuild a vector field from interior values; walls from trace or zero."""
    nu = (grid.nx - 1) * grid.ny
    u = np.zeros(grid.shape_u)
    v = np.zeros(grid.shape_v)
    u[1:-1, :] = x[:nu].reshape(grid.nx - 1, grid.ny)
    v[:, 1:-1] = x[nu:].reshape(grid.nx, grid.ny - 1)
    if trace is not None:
        u[0, :] = -trace.left
        u[-1, :] = trace.right
        v[:, 0] = -trace.bottom
        v[:, -1] = trace.top
    return VectorField(grid, u, v)


# ---------------------------------------------------------------------------
# Factor cache
# ---------------------------------------------------------------------------

_cache: dict = {}
_cache_lock = threading.Lock()


def _cached(key, builder):
    with _cache_lock:
        hit = _cache.get(key)
    if hit is not None:
        return hit
    value = builder()
    with _cache_lock:
        return _cache.setdefault(key, value)


def _lu_solver(matrix_csc) -> callable:
    lu = spla.splu(matrix_csc.tocsc())
    return lu.solve


class NeumannPoisson:
    """Zero-flux Poisson solve, pinned at one cell, exact for compatible data.

    The right-hand side is always deflated to mean zero first, so a genuinely
    incompatible source is answered by the solution of its mean-zero part
    (the leftover constant is the caller's business).  The returned field is
    the mean-zero representative.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        mat = laplacian_neumann_matrix(grid).tolil()
        mat[0, :] = 0.0
        mat[0, 0] = 1.0
        self._solve = _lu_solver(mat.tocsc())

    def solve_values(self, rhs: np.ndarray) -> np.ndarray:
        b = rhs.ravel().astype(np.float64, copy=True)
        b -= b.mean()
        b[0] = 0.0
        x = self._solve(b)
        x -= x.mean()
        return x.reshape(self.grid.shape_cell)

    def solve(self, rhs: ScalarField) -> ScalarField:
        return ScalarField(self.grid, self.solve_values(rhs.values))


def neumann_poisson(grid: Grid) -> NeumannPoisson:
    return _cached(("neumann_poisson", grid.nx, grid.ny), lambda: NeumannPoisson(grid))


def htilde_solver(grid: Grid):
    """Cached solver for (I - laplacian_neumann), the dual-norm realization."""
    def build():
        mat = sp.identity(grid.nx * grid.ny, format="csr") - laplacian_neumann_matrix(grid)
        return _lu_solver(mat)
    return _cached(("htilde", grid.nx, grid.ny), build)


def heat_solver(grid: Grid, a: float, bc: str, theta: str = "cn"):
    """Cached pair for heat stepping with coefficient a = nu*dt (full step).

    theta="cn":  solve (I - a/2 L) g+ = (I + a/2 L) g      (trapezoidal)
    theta="be":  solve (I - a L) g+ = g                     (backward Euler)
    Returns a callable values -> values.
    """
    key = ("heat", grid.nx, grid.ny, float(a), bc, theta)

    def build():
        lap = laplacian_neumann_matrix(grid) if bc == "neumann" else laplacian_dirichlet_matrix(grid)
        eye = sp.identity(grid.nx * grid.ny, format="csr")
        if theta == "cn":
            solve = _lu_solver(eye - (a / 2.0) * lap)
            plus = (eye + (a / 2.0) * lap).tocsr()

            def step(vals: np.ndarray) -> np.ndarray:
                return solve(plus @ vals.ravel()).reshape(grid.shape_cell)
        elif theta == "be":
            solve = _lu_solver(eye - a * lap)

            def step(vals: np.ndarray) -> np.ndarray:
                return solve(vals.ravel().copy()).reshape(grid.shape_cell)
        else:
            raise ValueError(f"unknown theta {theta!r}")
        return step

    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown bc {bc!r}")
    return _cached(key, build)


# ---------------------------------------------------------------------------
# Generalized Stokes solver (Schur CG with a separable velocity solve)
# ---------------------------------------------------------------------------

def _tridiagonal_eigh(n: int, h: float, node: bool):
    """Eigenpairs of the 1-D Dirichlet tridiagonal on nodes or on cells."""
    def build():
        t = _t_dirichlet_node(n, h) if node else _t_dirichlet_cell(n, h)
        return np.linalg.eigh(t.toarray())
    return _cached(("tridiagonal_eigh", n, h, node), build)


def _diagonalized_solve(b: np.ndarray, qx: np.ndarray, qy: np.ndarray,
                        inv: np.ndarray) -> np.ndarray:
    """Solve a separable block given by its eigenbases and inverse eigenvalues."""
    return (qx @ ((qx.T @ b.reshape(inv.shape) @ qy) * inv) @ qy.T).ravel()


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float


class GeneralizedStokes:
    """Solver for (alpha I + c K) u + G p = f, D u = g with wall-normal data.

    K is minus the no-slip vector Laplacian on interior faces.  Both of its
    blocks are Kronecker sums of 1-D Dirichlet tridiagonals, so
    (alpha I + c K)^{-1} is applied exactly in their eigenbases (Lynch, Rice
    and Thomas 1964).  The pressure solves the Schur complement system
    D (alpha I + c K)^{-1} D^T p = rhs by conjugate gradient, preconditioned
    with c I + alpha (-Lap_N)^{-1} (Cahouet and Chabard 1988); the iterate
    carries its velocity along, so the momentum equation holds at every
    iteration and the CG residual is the divergence residual.
    """

    def __init__(self, grid: Grid, alpha: float, c: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.c = float(c)
        if not (self.alpha >= 0.0 and self.c >= 0.0 and 0.0 < self.alpha + self.c < math.inf):
            raise ValueError(f"need alpha, c >= 0 with alpha + c > 0 and finite, "
                             f"got alpha = {alpha!r}, c = {c!r}")
        lxn, qxn = _tridiagonal_eigh(grid.nx, grid.h, True)
        lxc, qxc = _tridiagonal_eigh(grid.nx, grid.h, False)
        lyn, qyn = _tridiagonal_eigh(grid.ny, grid.h, True)
        lyc, qyc = _tridiagonal_eigh(grid.ny, grid.h, False)
        self._u_block = (qxn, qyc, 1.0 / (self.alpha - self.c * (lxn[:, None] + lyc[None, :])))
        self._v_block = (qxc, qyn, 1.0 / (self.alpha - self.c * (lxc[:, None] + lyn[None, :])))
        self._n_u = (grid.nx - 1) * grid.ny
        self._d = divergence_matrix(grid)
        self._dt = self._d.T.tocsr()
        self._poisson = neumann_poisson(grid) if self.alpha > 0.0 else None

    def velocity_solve(self, b: np.ndarray) -> np.ndarray:
        """(alpha I + c K)^{-1} b on the interior-face vector."""
        n_u = self._n_u
        return np.concatenate([_diagonalized_solve(b[:n_u], *self._u_block),
                               _diagonalized_solve(b[n_u:], *self._v_block)])

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        z = self.c * r
        if self._poisson is not None:
            z -= self.alpha * self._poisson.solve_values(r).ravel()
        return z

    def solve(self, f: VectorField | None = None, g: ScalarField | None = None,
              trace: BoundaryTrace | None = None):
        """Solve with body force f, divergence g and outward wall-normal velocity trace.

        Missing data is zero.  Returns (u, p, SolveReport): u carries the
        wall data, p is mean-zero, and the report gives the iterations and
        the divergence residual relative to max(||g'||, ||g' - D u0||), where
        g' is g less the wall flux and u0 the velocity at p = 0.  The
        momentum equation holds to round-off.  Raises SolverError when the
        data is not finite or the residual does not reach STOKES_TOL within
        STOKES_MAX_ITER iterations.
        """
        grid = self.grid
        b = np.zeros(self._dt.shape[0]) if f is None else flatten_interior(f)
        rhs = np.zeros(grid.nx * grid.ny)
        if g is not None or trace is not None:
            g = ScalarField.zeros(grid) if g is None else g
            trace = BoundaryTrace.zeros(grid) if trace is None else trace
            _check_compatibility(g, trace)
            b = b + self.c * _wall_rhs(grid, trace)
            walls = unflatten_interior(grid, np.zeros(b.size), trace)
            rhs = (g.values - divergence(walls).values).ravel()
        x = self.velocity_solve(b)
        r = rhs - self._d @ x
        norms = (np.linalg.norm(rhs), np.linalg.norm(r))
        if not np.isfinite(norms).all():
            raise SolverError("generalized Stokes solve: non-finite data")
        scale = max(norms)
        r -= r.mean()
        p = np.zeros_like(r)
        res = np.linalg.norm(r)
        it = 0
        if res > STOKES_TOL * scale:
            d = self._precondition(r)
            rz = r @ d
            for it in range(1, STOKES_MAX_ITER + 1):
                w = self.velocity_solve(self._dt @ d)
                sd = self._d @ w
                dsd = d @ sd
                if not dsd > 0.0:
                    raise SolverError(
                        f"generalized Stokes solve broke down at iteration {it} "
                        f"(curvature {dsd:.3e}, residual {res / scale:.3e})")
                a = rz / dsd
                p += a * d
                x += a * w
                r -= a * sd
                res = np.linalg.norm(r)
                if res <= STOKES_TOL * scale:
                    break
                z = self._precondition(r)
                rz, rz_old = r @ z, rz
                d = z + (rz / rz_old) * d
            else:
                raise SolverError(
                    f"generalized Stokes solve did not converge: {it} iterations, "
                    f"residual {res / scale:.3e} above tol {STOKES_TOL:.1e}")
        u = unflatten_interior(grid, x, trace)
        q = ScalarField(grid, (p - p.mean()).reshape(grid.shape_cell))
        return u, q, SolveReport(it, float(res / scale) if scale > 0.0 else 0.0)


def generalized_stokes(grid: Grid, alpha: float, c: float) -> GeneralizedStokes:
    return _cached(("generalized_stokes", grid.nx, grid.ny, float(alpha), float(c)),
                   lambda: GeneralizedStokes(grid, alpha, c))


class NoslipHelmholtz:
    """Solver for (I - c * Lap_noslip) on interior faces with optional wall data.

    With a wall trace given, the wall-normal faces are treated as Dirichlet
    data (their values folded into the right-hand side) and the returned
    field carries them; tangential wall values are zero by the closure.
    """

    def __init__(self, grid: Grid, c: float):
        self.grid = grid
        self.c = float(c)
        self._block = generalized_stokes(grid, 1.0, c)

    def solve(self, rhs: VectorField, trace: BoundaryTrace | None = None) -> VectorField:
        b = flatten_interior(rhs)
        if trace is not None:
            b = b + self.c * _wall_rhs(self.grid, trace)
        return unflatten_interior(self.grid, self._block.velocity_solve(b), trace)


def _wall_rhs(grid: Grid, trace: BoundaryTrace) -> np.ndarray:
    """RHS contribution of Dirichlet wall-normal data to K z = -Lap z."""
    h2 = grid.h * grid.h
    bu = np.zeros((grid.nx - 1, grid.ny))
    bv = np.zeros((grid.nx, grid.ny - 1))
    bu[0, :] = (-trace.left) / h2
    bu[-1, :] = trace.right / h2
    bv[:, 0] = (-trace.bottom) / h2
    bv[:, -1] = trace.top / h2
    return np.concatenate([bu.ravel(), bv.ravel()])


def _check_compatibility(g: ScalarField, trace: BoundaryTrace, tol: float = 1e-10) -> None:
    vol = integral(g)
    h = g.grid.h
    flux = h * float(np.sum(trace.left) + np.sum(trace.right) + np.sum(trace.bottom) + np.sum(trace.top))
    scale = max(1.0, scalar_norm(g), trace.max_abs())
    if abs(vol - flux) > tol * scale:
        raise CompatibilityError(
            f"divergence data and boundary flux disagree: volume integral {vol:.3e} "
            f"vs boundary flux {flux:.3e}")


def dense_stokes_solve(g: ScalarField, boundary_velocity: BoundaryTrace | None = None):
    """Direct bordered-matrix Stokes solve; oracle for small grids (<= 16x16)."""
    grid = g.grid
    if grid.nx > 16:
        raise ValueError("dense oracle restricted to grids of at most 16x16")
    trace = boundary_velocity if boundary_velocity is not None else BoundaryTrace.zeros(grid)
    _check_compatibility(g, trace)
    nf = (grid.nx - 1) * grid.ny + grid.nx * (grid.ny - 1)
    nc = grid.nx * grid.ny
    K = noslip_viscous_matrix(grid).toarray()
    G = -divergence_matrix(grid).toarray().T
    b_wall = _wall_rhs(grid, trace)
    fold = divergence(unflatten_interior(grid, np.zeros(nf), trace)).values.ravel()
    gprime = g.values.ravel() - fold
    # bordered symmetric system: [K G 0; G^T 0 1; 0 1^T 0]
    M = np.zeros((nf + nc + 1, nf + nc + 1))
    M[:nf, :nf] = K
    M[:nf, nf:nf + nc] = G
    M[nf:nf + nc, :nf] = G.T
    M[nf:nf + nc, nf + nc] = 1.0
    M[nf + nc, nf:nf + nc] = 1.0
    rhs = np.zeros(nf + nc + 1)
    rhs[:nf] = b_wall
    rhs[nf:nf + nc] = -gprime
    sol = np.linalg.solve(M, rhs)
    z = unflatten_interior(grid, sol[:nf], trace)
    qv = sol[nf:nf + nc]
    q = ScalarField(grid, (qv - qv.mean()).reshape(grid.shape_cell))
    return z, q
