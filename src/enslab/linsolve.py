"""Linear solvers shared by every elliptic subproblem.

Contents
--------
* Assembled operators on the interior-face and cell vectors: the scalar
  Laplacians, the no-slip viscous block K = -Lap_noslip, the divergence D
  (the gradient is G = -D^T) and the curl C of the interior-node stream
  function, whose range is the divergence-free subspace (D C = 0).
* Separable solves of the cell-centred scalar operators, applied in the
  cached eigenbases of the 1-D tridiagonals (Lynch, Rice and Thomas 1964):
  the zero-flux ``NeumannPoisson`` solve (the mean-zero pseudo-inverse), the
  heat steps with Neumann or Dirichlet walls and the dual-norm realization
  (I - Lap_N)^{-1}.
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

All solvers are reentrant: a solve owns its workspace, and the cache of
eigenbases and solvers is append-only keyed by immutable tuples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CompatibilityError, SolverError
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    _adopt,
    divergence,
    integral,
    scalar_norm,
    trace_integral,
)

__all__ = [
    "STOKES_TOL",
    "COMPAT_TOL",
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
    "curl_matrix",
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
# Compatibility of divergence data g with a wall-normal trace:
# |int g - oint trace| <= COMPAT_TOL * max(1, ||g||, max|trace|).  These two
# bounds belong to the tolerance table of ``diagnostics``, which imports
# this module and re-exports them.
COMPAT_TOL = 1e-10


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


def curl_matrix(grid: Grid) -> sp.csr_matrix:
    """Curl C of the interior-node stream function onto the interior faces
    (``vector_from_stream`` with zero wall values); D C = 0."""
    nx, ny = grid.nx, grid.ny
    # cell j of a grid line reads nodes j + 1 and j; the wall nodes are zero
    ex = sp.eye(nx, nx - 1) - sp.eye(nx, nx - 1, k=-1)
    ey = sp.eye(ny, ny - 1) - sp.eye(ny, ny - 1, k=-1)
    C = sp.vstack([sp.kron(sp.identity(nx - 1), ey), -sp.kron(ex, sp.identity(ny - 1))])
    return (C / grid.h).tocsr()


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
    return _adopt(VectorField, grid, u, v)


# ---------------------------------------------------------------------------
# Cache and separable scalar solves
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


def _tridiagonal_eigh(n: int, h: float, kind: str):
    """Eigenpairs, ascending, of the 1-D tridiagonal of kind "node" (Dirichlet
    on nodes), "cell" (Dirichlet on cells) or "neumann" (zero flux on cells).

    The largest Neumann eigenvalue, the constant mode's, is set to exactly 0.
    """
    def build():
        t = {"node": _t_dirichlet_node, "cell": _t_dirichlet_cell, "neumann": _t_neumann}[kind]
        lam, q = np.linalg.eigh(t(n, h).toarray())
        if kind == "neumann":
            lam[-1] = 0.0
        return lam, q
    return _cached(("tridiagonal_eigh", n, h, kind), build)


def _separable_eigenbasis(grid: Grid, kind_x: str, kind_y: str | None = None):
    """Eigenbases and eigenvalues lambda_x + lambda_y of a 2-D Kronecker sum."""
    lx, qx = _tridiagonal_eigh(grid.nx, grid.h, kind_x)
    ly, qy = _tridiagonal_eigh(grid.ny, grid.h, kind_y or kind_x)
    return qx, qy, lx[:, None] + ly[None, :]


def _diagonalized_solve(b: np.ndarray, qx: np.ndarray, qy: np.ndarray,
                        mult: np.ndarray) -> np.ndarray:
    """Apply a separable operator given by its eigenbases and multiplier."""
    return (qx @ ((qx.T @ b.reshape(mult.shape) @ qy) * mult) @ qy.T).ravel()


class NeumannPoisson:
    """Zero-flux Poisson solve: the mean-zero pseudo-inverse of Lap_N.

    The right-hand side is always deflated to mean zero first, so a genuinely
    incompatible source is answered by the solution of its mean-zero part
    (the leftover constant is the caller's business).  The returned field is
    the mean-zero representative.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        qx, qy, lam = _separable_eigenbasis(grid, "neumann")
        lam[-1, -1] = np.inf                  # the constant mode maps to 0
        self._block = (qx, qy, 1.0 / lam)

    def solve_values(self, rhs: np.ndarray) -> np.ndarray:
        x = _diagonalized_solve(rhs - rhs.mean(), *self._block)
        x -= x.mean()
        return x.reshape(self.grid.shape_cell)

    def solve(self, rhs: ScalarField) -> ScalarField:
        return _adopt(ScalarField, self.grid, self.solve_values(rhs.values))


def neumann_poisson(grid: Grid) -> NeumannPoisson:
    return _cached(("neumann_poisson", grid.nx, grid.ny), lambda: NeumannPoisson(grid))


def htilde_solver(grid: Grid):
    """Cached solver for (I - laplacian_neumann), the dual-norm realization."""
    def build():
        qx, qy, lam = _separable_eigenbasis(grid, "neumann")
        inv = 1.0 / (1.0 - lam)
        return lambda b: _diagonalized_solve(b, qx, qy, inv)
    return _cached(("htilde", grid.nx, grid.ny), build)


def heat_solver(grid: Grid, a: float, bc: str, theta: str = "cn"):
    """Cached step for the heat equation with coefficient a = nu*dt (full step).

    theta="cn":  g+ = (I - a/2 L)^{-1} (I + a/2 L) g      (trapezoidal)
    theta="be":  g+ = (I - a L)^{-1} g                     (backward Euler)
    L is the Neumann or Dirichlet cell Laplacian.  Returns a callable
    values -> values.
    """
    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown bc {bc!r}")
    if theta not in ("cn", "be"):
        raise ValueError(f"unknown theta {theta!r}")

    def build():
        qx, qy, lam = _separable_eigenbasis(grid, "neumann" if bc == "neumann" else "cell")
        if theta == "cn":
            mult = (1.0 + (a / 2.0) * lam) / (1.0 - (a / 2.0) * lam)
        else:
            mult = 1.0 / (1.0 - a * lam)
        return lambda vals: _diagonalized_solve(vals, qx, qy, mult).reshape(grid.shape_cell)

    return _cached(("heat", grid.nx, grid.ny, float(a), bc, theta), build)


# ---------------------------------------------------------------------------
# Generalized Stokes solver (Schur CG with a separable velocity solve)
# ---------------------------------------------------------------------------

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
        qx, qy, lam = _separable_eigenbasis(grid, "node", "cell")
        self._u_block = (qx, qy, 1.0 / (self.alpha - self.c * lam))
        qx, qy, lam = _separable_eigenbasis(grid, "cell", "node")
        self._v_block = (qx, qy, 1.0 / (self.alpha - self.c * lam))
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
        q = _adopt(ScalarField, grid, (p - p.mean()).reshape(grid.shape_cell))
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


def _check_compatibility(g: ScalarField, trace: BoundaryTrace) -> None:
    """The one solvability check of divergence data against a wall flux."""
    vol = integral(g)
    flux = trace_integral(trace)
    scale = max(1.0, scalar_norm(g), trace.max_abs())
    if abs(vol - flux) > COMPAT_TOL * scale:
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
