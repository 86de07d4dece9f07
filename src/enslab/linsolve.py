"""Linear solvers shared by every elliptic subproblem.

Contents
--------
* Separable solves of the cell-centred scalar operators, applied in the
  cached eigenbases of the 1-D tridiagonals (Lynch, Rice and Thomas 1964):
  the zero-flux ``NeumannPoisson`` solve (the mean-zero pseudo-inverse), the
  heat steps with Neumann or Dirichlet walls and the dual-norm realization
  (I - Lap_N)^{-1}.  The eigenbases are the DCT-II (Neumann cells), DST-II
  (Dirichlet cells) and DST-I (Dirichlet nodes) bases, built in closed form
  from one sine table (Strang, SIAM Review 41, 1999; ``_tridiagonal_eigh``).
* ``GeneralizedStokes``: (alpha I + c K) u + G p = f, D u = g with wall-normal
  velocity data, solved directly in one spectral pass: an exact free-slip
  solve, pointwise in the cached 1-D eigenbases, and a capacitance
  correction on the 4(N - 1) wall faces, factored at 1-D sizes.  One
  forward transform of f and g and one inverse transform of u, and of p
  when the caller keeps it: at most 12 dense N x N products.  Its
  post-condition is the divergence residual of the returned velocity,
  judged on a scale that needs a second velocity solve only when the first
  scale fails.  alpha = 0 is the stationary Stokes lift, alpha = 1 the
  viscous step on the divergence-free subspace.
* ``NoslipHelmholtz``: the velocity block alone, with wall data, solved
  component by component in the same eigenbases.

Every solve takes and returns the grid's own 2-D cell or face arrays: the
operators act along each axis, so no stacked vector of unknowns is formed.
A solve owns its workspace.  The cache of eigenbases and solvers is
append-only and keyed by immutable tuples; it takes no lock, as nothing in
the package solves on more than one thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompatibilityError, SolverError
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    _adopt,
    divergence,
    integral,
    rescaled_norm,
    scalar_norm,
    trace_integral,
    with_normal_trace,
)

__all__ = [
    "STOKES_TOL",
    "COMPAT_TOL",
    "SolveReport",
    "GeneralizedStokes",
    "generalized_stokes",
    "NeumannPoisson",
    "neumann_poisson",
    "htilde_solver",
    "heat_solver",
    "NoslipHelmholtz",
]

# Post-condition of a generalized-Stokes solve: its divergence residual,
# relative to the scale named in ``GeneralizedStokes.solve``.
STOKES_TOL = 1e-12
# Compatibility of divergence data g with a wall-normal trace:
# |int g - oint trace| <= COMPAT_TOL * max(1, ||g||, max|trace|).  These two
# bounds belong to the tolerance table of ``diagnostics``, which imports
# this module and re-exports them.
COMPAT_TOL = 1e-10


# ---------------------------------------------------------------------------
# Cache and separable scalar solves
# ---------------------------------------------------------------------------

_cache: dict = {}


def _cached(key, builder):
    hit = _cache.get(key)
    if hit is None:
        hit = _cache[key] = builder()
    return hit


def _tridiagonal_eigh(n: int, h: float, kind: str):
    """Eigenpairs, ascending, of the 1-D second difference over n cells of
    kind "neumann" (zero flux, ghost = interior), "cell" (zero wall value,
    ghost = -interior) or "node" (the n - 1 interior nodes, zero data at
    nodes 0 and n), in closed form: the DCT-II, DST-II and DST-I bases
    (Strang, SIAM Review 41, 1999).

    lam_k = -(4 / h^2) sin^2(pi k / 2n), and row i of column k of q is
    cos(pi k (i + 1/2) / n) for k = n - 1 ... 0 ("neumann"),
    sin(pi k (i + 1/2) / n) for k = n ... 1 ("cell") or
    sin(pi k (i + 1) / n) for k = n - 1 ... 1 ("node"), scaled to unit norm
    by sqrt(1/n) at k = 0 and k = n and by sqrt(2/n) otherwise.  Every value
    is read from one table of sin(pi r / 2n), r = 0 ... 4n - 1, at the angle
    index reduced mod 4n in integers: cos of the whole angle loses a digit
    of orthonormality at N = 128.  So the Neumann constant mode, the last,
    is exactly constant, with eigenvalue exactly 0.
    """
    def build():
        table = np.sin((np.pi / (2 * n)) * np.arange(4 * n))
        if kind == "node":
            k = np.arange(n - 1, 0, -1)
            r = 2 * np.outer(np.arange(1, n), k)
        else:                                                # cos x = sin(x + pi / 2)
            k = np.arange(n - 1, -1, -1) if kind == "neumann" else np.arange(n, 0, -1)
            r = np.outer(2 * np.arange(n) + 1, k) + (n if kind == "neumann" else 0)
        q = table[r % (4 * n)] * np.where(k % n == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
        return (-4.0 / (h * h)) * table[k] ** 2, q
    return _cached(("tridiagonal_eigh", n, h, kind), build)


def _separable_eigenbasis(grid: Grid, kind_x: str, kind_y: str | None = None):
    """Eigenbases and eigenvalues lambda_x + lambda_y of a 2-D Kronecker sum."""
    lx, qx = _tridiagonal_eigh(grid.nx, grid.h, kind_x)
    ly, qy = _tridiagonal_eigh(grid.ny, grid.h, kind_y or kind_x)
    return qx, qy, lx[:, None] + ly[None, :]


def _diagonalized_solve(b: np.ndarray, qx: np.ndarray, qy: np.ndarray,
                        mult: np.ndarray) -> np.ndarray:
    """Apply a separable operator, given by its eigenbases and multiplier, to
    the last two axes of b."""
    return qx @ ((qx.T @ b @ qy) * mult) @ qy.T


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
        """The solve on cell arrays; leading stack axes are kept.  On a 2-D
        array the means reduce over all axes, as rhs.mean() does."""
        x = _diagonalized_solve(rhs - rhs.mean(axis=(-2, -1), keepdims=True), *self._block)
        x -= x.mean(axis=(-2, -1), keepdims=True)
        return x

    def solve(self, rhs: ScalarField) -> ScalarField:
        return _adopt(ScalarField, self.grid, self.solve_values(rhs.values))


def neumann_poisson(grid: Grid) -> NeumannPoisson:
    return _cached(("neumann_poisson", grid.nx, grid.ny), lambda: NeumannPoisson(grid))


def htilde_solver(grid: Grid):
    """Cached solver for (I - laplacian_neumann), the dual-norm realization:
    a callable cell values -> cell values."""
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
    cell values -> cell values.
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
        return lambda vals: _diagonalized_solve(vals, qx, qy, mult)

    return _cached(("heat", grid.nx, grid.ny, float(a), bc, theta), build)


# ---------------------------------------------------------------------------
# Generalized Stokes solver: a free-slip solve and a wall correction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveReport:
    residual: float


def _div(grid: Grid, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """D x, the divergence of the interior-face arrays u and v of x (zero wall faces)."""
    d = np.zeros(grid.shape_cell)
    d[:-1] += u
    d[1:] -= u
    d[:, :-1] += v
    d[:, 1:] -= v
    return d / grid.h


def _wall_force(c: float, walls: VectorField):
    """The force of the wall-normal values of ``walls`` on c K: c / h^2 times
    them, on the first and last interior rows of u and columns of v."""
    h2 = walls.grid.h * walls.grid.h
    return c * (walls.u[[0, -1]] / h2), c * (walls.v[:, [0, -1]] / h2)


def _interior_force(c: float, f: VectorField, walls: VectorField | None):
    """The u and v arrays of f on the interior faces, plus the force of the
    wall data ``walls`` when given."""
    fu, fv = f.u[1:-1], f.v[:, 1:-1]
    if walls is None:
        return fu, fv
    wu, wv = _wall_force(c, walls)
    fu, fv = fu.copy(), fv.copy()
    fu[[0, -1]] += wu
    fv[:, [0, -1]] += wv
    return fu, fv


def _difference_factors(n: int, h: float) -> np.ndarray:
    """sigma_k = sqrt(-lam_k), k < n - 1: the cell differences E map the
    Neumann eigenvectors onto the node eigenvectors, E^T q_k = h sigma_k qn_k
    and E qn_k = h sigma_k q_k (cos a - cos b = 2 sin((a + b) / 2) sin((b - a) / 2))."""
    return np.sqrt(-_tridiagonal_eigh(n, h, "neumann")[0][:-1])


def _capacitance(grid: Grid, alpha: float, c: float):
    """C = I + c w U^T T U, T the free-slip solution operator, factored.

    T = (alpha I + c K_fs)^{-1} + D^T (alpha I - c Lap_N)^{-1} Lap_N^+ D, and
    D is diagonal between the node and Neumann eigenbases
    (``_difference_factors``).  So in the node eigenbasis along each wall,
    opposite walls combined as sum and difference (the square's
    reflections), the u-u and v-v parts of C are one diagonal, and the u-v
    part couples u walls of kind b in modes of parity a only with v walls of
    kind a in modes of parity b: four systems of order about N - 1, each
    stored as its u-v block and its inverted v-side Schur complement.
    """
    n, h = grid.nx, grid.h
    lam, q = _tridiagonal_eigh(n, h, "neumann")
    both = lam[:-1, None] + lam[None, :]                # lam_k + lam_l, k < n - 1
    mult = 1.0 / (both * (alpha - c * both))            # (alpha I - c Lap_N)^{-1} Lap_N^+
    ends = np.stack([q[0] + q[-1], q[0] - q[-1]]) / math.sqrt(2.0)
    cw = 2.0 * c / (h * h)
    diag = 1.0 + cw * (ends * ends) @ (lam * mult).T    # [sum or difference, mode]
    e = _difference_factors(n, h) * ends[:, :-1]
    odd = np.abs(ends[1, :-1]) > np.abs(ends[0, :-1])
    modes = (np.flatnonzero(~odd), np.flatnonzero(odd))
    blocks = []
    for a, b in ((0, 0), (0, 1), (1, 0), (1, 1)):
        ia, ib = modes[a], modes[b]
        x = cw * e[a, ia, None] * mult[np.ix_(ia, ib)] * e[b, ib]
        schur = np.diag(diag[a, ib]) - x.T @ (x / diag[b, ia, None])
        blocks.append((a, b, ia, ib, x, np.linalg.inv(schur)))
    half = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    return np.kron(np.eye(2), half), diag, blocks


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """1 / a, with 0 where a is 0."""
    return np.divide(1.0, a, out=np.zeros_like(a), where=a != 0.0)


class GeneralizedStokes:
    """Direct solver for (alpha I + c K) u + G p = f, D u = g with wall-normal data.

    K is minus the no-slip vector Laplacian on interior faces: the free-slip
    K_fs (zero tangential stress) plus w = 2/h^2 on the 4(N - 1) tangential
    faces next to a wall, K = K_fs + w U U^T.  As D K_fs = -Lap_N D and
    D D^T = -Lap_N, the free-slip system is solved exactly by
    p = Lap_N^+ (D f - alpha g) + c g and u = (alpha I + c K_fs)^{-1} (f - G p).
    The Woodbury identity makes it no-slip through the capacitance C on the
    wall faces (Buzbee, Dorr, George and Golub 1971; Proskurowski and
    Widlund 1976): the free-slip solve with force U C^{-1} (c w U^T u) is
    subtracted.  At c = 0 there is no correction, and the solve is the Leray
    projection.

    The whole solve is one spectral pass.  The u faces are expanded in the
    node eigenbasis qn along x and the Neumann eigenbasis q along y, the v
    faces the other way round, and cells in q along both.  There Lap_N is
    Lam[k, l] = lam_k + lam_l, K_fs is -Lam on the matching modes, and D and
    D^T multiply by sigma (``_difference_factors``), so the free-slip p and
    u are pointwise functions of the transformed f and g.  The wall values
    U^T u are node coordinates, u times a row of q, and the correction force
    is two outer products per component, so neither needs a transform.
    """

    def __init__(self, grid: Grid, alpha: float, c: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.c = float(c)
        if not (self.alpha >= 0.0 and self.c >= 0.0 and 0.0 < self.alpha + self.c < math.inf):
            raise ValueError(f"need alpha, c >= 0 with alpha + c > 0 and finite, "
                             f"got alpha = {alpha!r}, c = {c!r}")
        n, h = grid.nx, grid.h
        lam, self._q = _tridiagonal_eigh(n, h, "neumann")
        self._qn = _tridiagonal_eigh(n, h, "node")[1]
        self._ends = self._q[[0, -1]]                        # wall rows of q
        self._sigma = _difference_factors(n, h)
        lap = lam[:, None] + lam[None, :]                    # Lam; only [-1, -1] is 0
        self._inv_lap = _reciprocal(lap)                     # Lap_N^+
        self._g_mult = self.c - self.alpha * self._inv_lap   # p's part from g
        self._g_mult[-1, -1] = 0.0                           # p is mean-zero
        self._mult = _reciprocal(self.alpha - self.c * lap)  # (alpha I + c K_fs)^{-1}
        self._norm_d = math.sqrt(-lap[0, 0])                 # ||D||_2, as D D^T = -Lap_N
        self._capacitance = _capacitance(grid, self.alpha, self.c) if self.c > 0.0 else None

    @cached_property
    def _noslip(self) -> NoslipHelmholtz:
        """The velocity block alone, for u0 in ``solve``'s second residual
        scale: built the first time that scale is needed."""
        return NoslipHelmholtz(self.grid, self.c, self.alpha)

    def _free_slip_modes(self, fu: np.ndarray, fv: np.ndarray, gm: np.ndarray | None):
        """Spectral (u, v, p) of the free-slip solve with spectral force (fu, fv)
        and p's part gm from the divergence data."""
        s = self._sigma
        d = np.zeros(self._inv_lap.shape)
        d[:-1] = s[:, None] * fu
        d[:, :-1] += fv * s
        p = d * self._inv_lap
        if gm is not None:
            p += gm
        u = (fu + s[:, None] * p[:-1]) * self._mult[:-1]
        v = (fv + p[:, :-1] * s) * self._mult[:, :-1]
        return u, v, p

    def _wall_modes_solve(self, z: np.ndarray) -> np.ndarray:
        """C^{-1} in node coordinates along the walls, one column per wall:
        the u faces next to the bottom and the top, the v faces next to the
        left and the right."""
        half, diag, blocks = self._capacitance
        z = (z @ half).T                 # u sum, u difference, v sum, v difference
        out = np.empty_like(z)
        out[:2] = z[:2] / diag
        for a, b, ia, ib, x, schur_inv in blocks:
            zv = schur_inv @ (z[2 + a, ib] - x.T @ out[b, ia])
            out[2 + a, ib] = zv
            out[b, ia] -= (x @ zv) / diag[b, ia]
        return out.T @ half

    def solve(self, f: VectorField | None = None, g: ScalarField | None = None,
              trace: BoundaryTrace | None = None, *, pressure: bool = True):
        """Solve with body force f, divergence g and outward wall-normal velocity trace.

        Missing data is zero.  Returns (u, p, SolveReport): u carries the
        wall data and p is mean-zero, or None with ``pressure=False``.  The
        solve makes one forward transform of f (4 dense N x N products) and
        of g' (2), each only when it is given, and one inverse transform of
        u (4) and of p (2, only when kept): at most 12 products, and 8 for a
        velocity from a force alone or for a lift.  The wall data's force
        lies on two grid lines per component and is transformed by outer
        products.

        The report gives the divergence residual of the returned u,
        ||g' - D u|| over its mean-zero part (the mean is the compatibility
        check's); g' is g less the wall flux.  It is judged on the scale
        max(||g'||, ||D||_2 ||u||) and, only if it fails there, again on
        max(||g'||, ||g' - D u0||, ||D||_2 ||u||) with
        u0 = (alpha I + c K)^{-1} f the velocity at p = 0.  The second scale
        is never smaller, so the first stage passes only what the second
        would.  Raises SolverError on non-finite data or a residual above
        STOKES_TOL on the second scale.
        """
        grid = self.grid
        q, qn = self._q, self._qn
        gp = np.zeros(grid.shape_cell)
        walls = None
        if g is not None or trace is not None:
            g = ScalarField.zeros(grid) if g is None else g
            _check_compatibility(g, BoundaryTrace.zeros(grid) if trace is None else trace)
            gp = g.values
            if trace is not None:
                walls = with_normal_trace(VectorField.zeros(grid), trace)
                gp = gp - divergence(walls).values
        norm_g = rescaled_norm(np.linalg.norm, gp)
        force_sq = 0.0                   # of the force plus the wall data's force
        if f is not None or walls is not None:
            bu, bv = _interior_force(self.c, VectorField.zeros(grid) if f is None else f, walls)
            force_sq = float(np.vdot(bu, bu)) + float(np.vdot(bv, bv))
        if not (math.isfinite(norm_g) and math.isfinite(force_sq)):
            raise SolverError("generalized Stokes solve: non-finite data")
        fu, fv = np.zeros((grid.nx - 1, grid.ny)), np.zeros((grid.nx, grid.ny - 1))
        if f is not None:
            fu, fv = qn.T @ f.u[1:-1] @ q, q.T @ f.v[:, 1:-1] @ qn
        if walls is not None:            # the wall data's force lies on two lines per component
            wu, wv = _wall_force(self.c, walls)
            ends_n = qn[[0, -1]]
            fu = fu + ends_n.T @ (wu @ q)
            fv = fv + (q.T @ wv) @ ends_n
        gm = (q.T @ gp @ q) * self._g_mult if norm_g > 0.0 else None
        uh, vh, ph = self._free_slip_modes(fu, fv, gm)
        if self._capacitance is not None:
            ends = self._ends
            z = np.concatenate([uh @ ends.T, (ends @ vh).T], axis=1)
            force = self._wall_modes_solve((2.0 * self.c / (grid.h * grid.h)) * z)
            uh, vh, ph = self._free_slip_modes(fu - force[:, :2] @ ends,
                                               fv - ends.T @ force[:, 2:].T, gm)
        if walls is None:
            u, v = np.zeros(grid.shape_u), np.zeros(grid.shape_v)
        else:
            u, v = walls.u.copy(), walls.v.copy()
        xu, xv = u[1:-1], v[:, 1:-1]
        xu[...] = qn @ uh @ q.T
        xv[...] = q @ vh @ qn.T
        r = gp - _div(grid, xu, xv)
        r = np.linalg.norm(r - r.mean())
        scale = max(norm_g, self._norm_d * math.hypot(np.linalg.norm(xu), np.linalg.norm(xv)))
        res = float(r / scale) if scale > 0.0 else 0.0
        if not res <= STOKES_TOL:
            u0 = self._noslip.solve(VectorField.zeros(grid) if f is None else f, trace)
            scale = max(scale, np.linalg.norm(gp - _div(grid, u0.u[1:-1], u0.v[:, 1:-1])))
            res = float(r / scale) if scale > 0.0 else 0.0
            if not res <= STOKES_TOL:
                raise SolverError(f"generalized Stokes solve: divergence residual {res:.3e} "
                                  f"above tol {STOKES_TOL:.1e}")
        u = _adopt(VectorField, grid, u, v)
        if not pressure:
            return u, None, SolveReport(res)
        p = q @ ph @ q.T
        return u, _adopt(ScalarField, grid, p - p.mean()), SolveReport(res)


def generalized_stokes(grid: Grid, alpha: float, c: float) -> GeneralizedStokes:
    return _cached(("generalized_stokes", grid.nx, grid.ny, float(alpha), float(c)),
                   lambda: GeneralizedStokes(grid, alpha, c))


class NoslipHelmholtz:
    """Solver for (alpha I - c * Lap_noslip) on interior faces (alpha = 1
    unless given), with optional wall data.  Each component is separable: u
    in the node eigenbasis along x and the cell eigenbasis along y, v the
    other way round.

    With a wall trace given, the wall-normal faces are treated as Dirichlet
    data (their force added on the first and last interior lines) and the
    returned field carries them; tangential wall values are zero by the
    closure.
    """

    def __init__(self, grid: Grid, c: float, alpha: float = 1.0):
        self.grid = grid
        self.c = c = float(c)
        alpha = float(alpha)

        def build():
            return [(qx, qy, 1.0 / (alpha - c * lam))
                    for qx, qy, lam in (_separable_eigenbasis(grid, *kinds)
                                        for kinds in (("node", "cell"), ("cell", "node")))]
        self._blocks = _cached(("noslip_helmholtz", grid.nx, grid.ny, alpha, c), build)

    def solve(self, rhs: VectorField, trace: BoundaryTrace | None = None) -> VectorField:
        grid = self.grid
        if trace is None:
            walls, u, v = None, np.zeros(grid.shape_u), np.zeros(grid.shape_v)
        else:
            walls = with_normal_trace(VectorField.zeros(grid), trace)
            u, v = walls.u.copy(), walls.v.copy()
        bu, bv = _interior_force(self.c, rhs, walls)
        u[1:-1] = _diagonalized_solve(bu, *self._blocks[0])
        v[:, 1:-1] = _diagonalized_solve(bv, *self._blocks[1])
        return _adopt(VectorField, grid, u, v)


def _check_compatibility(g: ScalarField, trace: BoundaryTrace) -> None:
    """The one solvability check of divergence data against a wall flux."""
    vol = integral(g)
    flux = trace_integral(trace)
    scale = max(1.0, rescaled_norm(scalar_norm, g), trace.max_abs())
    if abs(vol - flux) > COMPAT_TOL * scale:
        raise CompatibilityError(
            f"divergence data and boundary flux disagree: volume integral {vol:.3e} "
            f"vs boundary flux {flux:.3e}")
