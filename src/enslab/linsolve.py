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
  correction on the 4(N - 1) wall faces, the dense inverses of four parity
  systems of order about N.  One forward transform of f and g and one
  inverse transform of u, and of p only when the caller keeps it: at most
  12 dense N x N products.  Its post-condition is the divergence residual
  of the returned velocity, judged on a scale that needs a second velocity
  solve only when the first scale fails.  alpha = 0 is the stationary
  Stokes lift, alpha = 1 the viscous step on the divergence-free subspace.
* ``NoslipHelmholtz``: the velocity block alone, with wall data, solved
  component by component in the same eigenbases.

Every solve takes and returns the grid's own 2-D cell or face arrays: the
operators act along each axis, so no stacked vector of unknowns is formed.
The generalized Stokes solves of a grid share its spectral workspaces; every
returned array is fresh.  The cache holds what depends on the grid alone
(eigenbases, the zero-flux Poisson and (I - Lap_N) solvers, workspaces and
the lift's solver); a solver fixed by a run's nu dt is built by the run
(``reference.Flow``) and held by it.  The cache is append-only and keyed by
immutable tuples; it takes no lock, as nothing in the package solves on
more than one thread.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import CompatibilityError, SolverError
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField,
    VectorField,
    _adopt,
    _line_aligned,
    _write_normal_trace,
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
    "GeneralizedStokes",
    "lift_solver",
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


def _tridiagonal_eigh(n: int, kind: str):
    """Eigenpairs, ascending, of the 1-D second difference over n cells of
    width h = 1/n, of kind "neumann" (zero flux, ghost = interior), "cell"
    (zero wall value, ghost = -interior) or "node" (the n - 1 interior nodes,
    zero data at nodes 0 and n), in closed form: the DCT-II, DST-II and DST-I
    bases (Strang, SIAM Review 41, 1999).

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
        lam, table, k = _tridiagonal_eigvals(n, kind)
        if kind == "node":
            r = 2 * np.outer(np.arange(1, n), k)
        else:                                                # cos x = sin(x + pi / 2)
            r = np.outer(2 * np.arange(n) + 1, k) + (n if kind == "neumann" else 0)
        q = table[r % (4 * n)] * np.where(k % n == 0, math.sqrt(1.0 / n), math.sqrt(2.0 / n))
        return lam, q
    return _cached(("tridiagonal_eigh", n, kind), build)


def _tridiagonal_eigvals(n: int, kind: str):
    """``_tridiagonal_eigh``'s eigenvalues, sine table and column modes k."""
    h = 1.0 / n
    table = np.sin((np.pi / (2 * n)) * np.arange(4 * n))
    k = np.arange(n - 1, 0, -1) if kind == "node" else (
        np.arange(n - 1, -1, -1) if kind == "neumann" else np.arange(n, 0, -1))
    return (-4.0 / (h * h)) * table[k] ** 2, table, k


def _separable_eigenbasis(grid: Grid, kind_x: str, kind_y: str | None = None):
    """Eigenbases and eigenvalues lambda_x + lambda_y of a 2-D Kronecker sum."""
    lx, qx = _tridiagonal_eigh(grid.n, kind_x)
    ly, qy = _tridiagonal_eigh(grid.n, kind_y or kind_x)
    return qx, qy, lx[:, None] + ly[None, :]


def _diagonalized_solve(b: np.ndarray, qx: np.ndarray, qy: np.ndarray,
                        mult: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Apply a separable operator, given by its eigenbases and multiplier, to
    the last two axes of b; the result goes to out when given."""
    half = qx.T @ b
    modes = half @ qy
    modes *= mult
    return np.matmul(np.matmul(qx, modes, out=half), qy.T, out=out)


class NeumannPoisson:
    """Zero-flux Poisson solve: the mean-zero pseudo-inverse of Lap_N.

    The right-hand side is always deflated to mean zero first, so a genuinely
    incompatible source is answered by the solution of its mean-zero part
    (the leftover constant is the caller's business).  The returned array is
    the mean-zero representative.
    """

    def __init__(self, grid: Grid):
        qx, qy, lam = _separable_eigenbasis(grid, "neumann")
        lam[-1, -1] = np.inf                  # the constant mode maps to 0
        self._block = (qx, qy, 1.0 / lam)

    def solve_values(self, rhs: np.ndarray) -> np.ndarray:
        """The solve on cell arrays; leading stack axes are kept.  On a 2-D
        array the means reduce over all axes, as rhs.mean() does."""
        x = _diagonalized_solve(rhs - rhs.mean(axis=(-2, -1), keepdims=True), *self._block)
        x -= x.mean(axis=(-2, -1), keepdims=True)
        return x


def neumann_poisson(grid: Grid) -> NeumannPoisson:
    return _cached(("neumann_poisson", grid.n), lambda: NeumannPoisson(grid))


def htilde_solver(grid: Grid):
    """Cached solver for (I - Lap_N), Lap_N the zero-flux cell Laplacian: the
    dual-norm realization, a callable cell values -> cell values."""
    def build():
        qx, qy, lam = _separable_eigenbasis(grid, "neumann")
        inv = 1.0 / (1.0 - lam)
        return lambda b: _diagonalized_solve(b, qx, qy, inv)
    return _cached(("htilde", grid.n), build)


def heat_solver(grid: Grid, a: float, bc: str, theta: str = "cn"):
    """Step for the heat equation with coefficient a = nu*dt (full step).

    theta="cn":  g+ = (I - a/2 L)^{-1} (I + a/2 L) g      (trapezoidal)
    theta="be":  g+ = (I - a L)^{-1} g                     (backward Euler)
    L is the Neumann or Dirichlet cell Laplacian.  Returns a callable
    cell values -> cell values.
    """
    if bc not in ("neumann", "dirichlet"):
        raise ValueError(f"unknown bc {bc!r}")
    if theta not in ("cn", "be"):
        raise ValueError(f"unknown theta {theta!r}")
    qx, qy, lam = _separable_eigenbasis(grid, "neumann" if bc == "neumann" else "cell")
    if theta == "cn":
        mult = (1.0 + (a / 2.0) * lam) / (1.0 - (a / 2.0) * lam)
    else:
        mult = 1.0 / (1.0 - a * lam)
    return lambda vals: _diagonalized_solve(vals, qx, qy, mult)


# ---------------------------------------------------------------------------
# Generalized Stokes solver: a free-slip solve and a wall correction
# ---------------------------------------------------------------------------

def _wall_force(c: float, u: np.ndarray, v: np.ndarray, h: float):
    """The force of the wall-normal values of the face arrays (u, v) on c K:
    c / h^2 times them, on the first and last interior rows of u and columns
    of v."""
    h2 = h * h
    return c * (u[[0, -1]] / h2), c * (v[:, [0, -1]] / h2)


def _difference_factors(n: int) -> np.ndarray:
    """sigma_k = sqrt(-lam_k), k < n - 1: the cell differences E map the
    Neumann eigenvectors onto the node eigenvectors, E^T q_k = h sigma_k qn_k
    and E qn_k = h sigma_k q_k (cos a - cos b = 2 sin((a + b) / 2) sin((b - a) / 2))."""
    return np.sqrt(-_tridiagonal_eigh(n, "neumann")[0][:-1])


def _capacitance(grid: Grid, alpha: float, c: float):
    """-c w C^{-1}, C = I + c w U^T T U and T the free-slip solution operator:
    returns the wall rows of q as sum and difference over sqrt 2, the index
    of the unknowns of four systems in turn, and their dense inverses.

    T = (alpha I + c K_fs)^{-1} + D^T (alpha I - c Lap_N)^{-1} Lap_N^+ D, and
    D is diagonal between the node and Neumann eigenbases
    (``_difference_factors``).  So in the node eigenbasis along each wall,
    opposite walls combined as sum and difference (the square's
    reflections), the u-u and v-v parts of C are one diagonal, and the u-v
    part couples u walls of kind b in modes of parity a only with v walls of
    kind a in modes of parity b: four systems of order about N - 1, of which
    (1, 0) is (0, 1) mirrored in the diagonal.  Each inverse is the
    block-inverse formula on the inverted v-side Schur complement.
    """
    n, h = grid.n, grid.h
    lam, q = _tridiagonal_eigh(n, "neumann")
    both = lam[:-1, None] + lam[None, :]                # lam_k + lam_l, k < n - 1
    mult = 1.0 / (both * (alpha - c * both))            # (alpha I - c Lap_N)^{-1} Lap_N^+
    ends = np.stack([q[0] + q[-1], q[0] - q[-1]]) / math.sqrt(2.0)
    cw = 2.0 * c / (h * h)
    diag = 1.0 + cw * (ends * ends) @ (lam * mult).T    # [sum or difference, mode]
    odd = np.abs(ends[1, :-1]) > np.abs(ends[0, :-1])
    order = np.argsort(odd, kind="stable")              # the even modes, then the odd
    e = (_difference_factors(n) * np.where(odd, ends[1, :-1], ends[0, :-1]))[order]
    coupling = (cw * e[:, None]) * np.take(mult[order], order, axis=1) * e
    diag, even = diag[:, order], n - 1 - np.count_nonzero(odd)
    modes = (slice(0, even), slice(even, n - 1))
    index, inverses = [], []
    for a, b in ((0, 0), (0, 1), (1, 1)):
        x = coupling[modes[a], modes[b]]
        du, dv = diag[b, modes[a]], diag[a, modes[b]]
        y = x / du[:, None]
        s = np.linalg.inv(np.diag(dv) - x.T @ y) * -cw    # -c w S^-1, S the v-side Schur
        ys, k = y @ s, len(y)
        inverse = np.empty((k + len(s),) * 2)   # -c w [[D^-1 + y S^-1 y^T, -y S^-1], [., S^-1]]
        np.matmul(ys, y.T, out=inverse[:k, :k])
        inverse.reshape(-1)[:k * (len(inverse) + 1):len(inverse) + 1] -= cw / du
        inverse[:k, k:], inverse[k:, :k], inverse[k:, k:] = -ys, -ys.T, s
        u, v = order[modes[a]] + b * n, order[modes[b]] + (2 + a) * n
        index += [u, v] if a == b else [u, v, u + 2 * n, v - 2 * n]
        inverses += [inverse] * (1 if a == b else 2)
    return ends, np.concatenate(index), inverses


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """1 / a, with 0 where a is 0."""
    return np.divide(1.0, a, out=np.zeros_like(a), where=a != 0.0)


class _Workspace:
    """The spectral arrays of the generalized Stokes solves on the n x n grid,
    shared, as solves run on one thread and never nest, and never returned:
    the force and velocity modes of u and v, g's modes, the wall values and
    a scratch array, each on a 64-byte line.  The v modes and the wall values
    are padded to n columns, the last always 0, so every pointwise step runs
    over whole rows."""

    def __init__(self, n: int):
        self.fu, self.uh = (_line_aligned(n * n - n).reshape(n - 1, n) for _ in range(2))
        self.fv, self.vh, self.gh = (_line_aligned(n * n).reshape(n, n) for _ in range(3))
        self.fv[:, -1] = self.vh[:, -1] = 0.0
        self.walls = np.zeros((4, n))
        self._scratch = _line_aligned(n * n)

    def scratch(self, shape) -> np.ndarray:
        return self._scratch[:math.prod(shape)].reshape(shape)


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
    D^T multiply by sigma (``_difference_factors``), so the free-slip u is a
    pointwise function of the transformed f and g, p eliminated: three held
    multipliers of f, and two of g built on first use.  The wall values
    U^T u are node coordinates, u times a row of q, and the correction force
    is two outer products per component, so neither needs a transform.
    C^{-1} is dense per system (``_capacitance``): one gather, four products
    with vectors and one scatter.
    """

    def __init__(self, grid: Grid, alpha: float, c: float):
        self.grid = grid
        self.alpha = float(alpha)
        self.c = float(c)
        if not (self.alpha >= 0.0 and self.c >= 0.0 and 0.0 < self.alpha + self.c < math.inf):
            raise ValueError(f"need alpha, c >= 0 with alpha + c > 0 and finite, "
                             f"got alpha = {alpha!r}, c = {c!r}")
        n = grid.n
        self._q = _tridiagonal_eigh(n, "neumann")[1]
        self._qn = _tridiagonal_eigh(n, "node")[1]
        s, lam, inv, mult = self._symbols()
        self._norm_d = math.sqrt(-(lam[0] + lam[0]))          # ||D||_2, as D D^T = -Lap_N
        # u = mult (f_u + s_k p), p = Lap^+ (s_k f_u + s_l f_v) and
        # 1 + s_k^2 / Lam = lam_l / Lam: the multipliers of u's and v's own
        # force, and of the other's on the modes both have; 0 on the pad
        # column of the v modes
        inv *= mult
        self._uu = inv[:-1] * lam
        self._vv = inv * lam[:, None]
        self._vv[:, -1] = 0.0
        self._cross = inv[:-1] * np.outer(s, np.append(s, 0.0))
        self._capacitance = _capacitance(grid, self.alpha, self.c) if self.c > 0.0 else None
        self._work = _cached(("stokes_workspace", n), lambda: _Workspace(n))

    def _symbols(self):
        """sigma, lam, Lap_N^+ and (alpha I + c K_fs)^{-1} on the cell modes."""
        n = self.grid.n
        lam = _tridiagonal_eigh(n, "neumann")[0]
        lap = lam[:, None] + lam[None, :]                    # Lam; only [-1, -1] is 0
        return (_difference_factors(n), lam, _reciprocal(lap),
                _reciprocal(self.alpha - self.c * lap))

    @cached_property
    def _g_modes(self):
        """u's and v's multipliers of g's transform, through p's part c - alpha Lap_N^+."""
        s, _, inv, mult = self._symbols()
        mult *= self.c - self.alpha * inv
        return s[:, None] * mult[:-1], mult * np.append(s, 0.0)

    @cached_property
    def _noslip(self) -> NoslipHelmholtz:
        """The velocity block alone, for u0 in ``solve``'s second scale."""
        return NoslipHelmholtz(self.grid, self.c, self.alpha)

    def _velocity_modes(self, fu, fv, gh) -> None:
        """The free-slip velocity in modes, into the workspaces uh and vh,
        from the spectral force (fu, fv), None for none, and g's transform gh."""
        w = self._work
        uh, vh = w.uh, w.vh
        if fu is not None:
            x = w.scratch(uh.shape)
            np.multiply(self._uu, fu, out=uh)
            np.add(uh, np.multiply(self._cross, fv[:-1], out=x), out=uh)
            np.multiply(self._vv, fv, out=vh)
            np.add(vh[:-1], np.multiply(self._cross, fu, out=x), out=vh[:-1])
        if gh is not None:
            for out, mult, part in zip((uh, vh), self._g_modes, (gh[:-1], gh)):
                if fu is None:
                    np.multiply(mult, part, out=out)
                else:
                    out += np.multiply(mult, part, out=w.scratch(out.shape))

    def _wall_modes_solve(self, z: np.ndarray) -> None:
        """z <- -c w C^{-1} z in place, z in node coordinates along the walls
        and padded by one column: the u faces next to the bottom and top, then
        the v faces next to the left and right, each pair as sum and
        difference over sqrt 2."""
        _, index, inverses = self._capacitance
        flat = z.reshape(-1)
        r, out, lo = flat[index], np.empty(index.size), 0
        for inverse in inverses:
            np.matmul(inverse, r[lo:lo + len(inverse)], out=out[lo:lo + len(inverse)])
            lo += len(inverse)
        flat[index] = out

    def solve(self, f: VectorField | None = None, g: ScalarField | None = None,
              trace: BoundaryTrace | None = None, *, pressure: bool = True):
        """Solve with body force f, divergence g and outward wall-normal velocity trace.

        Missing data is zero.  Returns (u, p): u carries the wall data and p
        is mean-zero, or None with ``pressure=False``, and then never
        formed.  One forward transform of f (4 dense N x N products) and of
        g' (2), each only when given, and one inverse transform of u (4) and
        of p (2, only when kept): at most 12 products, and 8 for a velocity
        from a force alone or for a lift.
        The wall data's force lies on two lines per component and is
        transformed by outer products.  The spectral arrays are the grid's
        ``_Workspace``; u and p are always fresh.

        The solve checks the divergence residual of the returned u,
        ||g' - D u|| over its mean-zero part (the mean is the compatibility
        check's); g' is g less the wall flux.  It is judged on the scale
        max(||g'||, ||D||_2 ||u||) and, only if it fails there, again on
        max(||g'||, ||g' - D u0||, ||D||_2 ||u||) with
        u0 = (alpha I + c K)^{-1} f the velocity at p = 0.  The second scale
        is never smaller, so the first stage passes only what the second
        would.  Raises SolverError on non-finite data, on finite data whose
        sum of squares overflows (naming its largest entry) or on a residual
        above STOKES_TOL on the second scale.
        """
        grid, q, qn, w = self.grid, self._q, self._qn, self._work
        if f is None and g is None and trace is None:
            f = VectorField.zeros(grid)
        walls, gp = None, (None if g is None else g.values)
        if trace is not None:            # g' and the wall data's force, judged just below
            walls = with_normal_trace(VectorField.zeros(grid), trace)
            with np.errstate(over="ignore", invalid="ignore"):
                div = divergence(walls).values
                gp = -div if g is None else gp - div
                wu, wv = _wall_force(self.c, walls.u, walls.v, grid.h)
        # the sums of squares are finite only if every entry is, and then
        # nothing after them overflows
        sq_g = 0.0 if gp is None else float(np.vdot(gp, gp))
        forces = (() if f is None else f.arrays) + (() if walls is None else (wu, wv))
        if not math.isfinite(sq_g + sum(float(np.vdot(a, a)) for a in forces)):
            data = [d for d in (f, g, trace) if d is not None]
            if not all(np.isfinite(a).all() for d in data for a in d.arrays):
                raise SolverError("generalized Stokes solve: non-finite data")
            raise SolverError(f"generalized Stokes solve: the measure of finite data overflows "
                              f"(largest entry {max(d.max_abs() for d in data):.3e})")
        if g is not None or trace is not None:
            _check_compatibility(g, trace)
        fu = fv = gh = None
        if f is not None:
            f_u, f_v = f.u[1:-1], f.v[:, 1:-1]
            fu = np.matmul(np.matmul(qn.T, f_u, out=w.scratch(f_u.shape)), q, out=w.fu)
            np.matmul(np.matmul(q.T, f_v, out=w.scratch(f_v.shape)), qn, out=w.fv[:, :-1])
            fv = w.fv
        if walls is not None:            # the wall data's force lies on two lines per component
            wfu, wfv = qn[[0, -1]].T @ (wu @ q), (q.T @ wv) @ np.pad(qn[[0, -1]], ((0, 0), (0, 1)))
            fu = wfu if fu is None else np.add(fu, wfu, out=fu)
            fv = wfv if fv is None else np.add(fv, wfv, out=fv)
        if gp is not None:
            gh = np.matmul(np.matmul(q.T, gp, out=w.scratch(gp.shape)), q, out=w.gh)
        self._velocity_modes(fu, fv, gh)
        if self._capacitance is not None:
            ends, z = self._capacitance[0], w.walls
            np.matmul(ends, w.uh.T, out=z[:2, :-1])
            np.matmul(ends, w.vh, out=z[2:])
            self._wall_modes_solve(z)
            du = np.matmul(z[:2, :-1].T, ends, out=w.fu if fu is None else w.scratch(w.fu.shape))
            fu = du if fu is None else np.add(fu, du, out=fu)
            dv = np.matmul(ends.T, z[2:], out=w.fv if fv is None else w.scratch(w.fv.shape))
            fv = dv if fv is None else np.add(fv, dv, out=fv)
            self._velocity_modes(fu, fv, gh)
        p = self._pressure(fu, fv, gh) if pressure else None
        u, v = ((np.zeros(grid.shape_u), np.zeros(grid.shape_v)) if walls is None
                else (walls.u.copy(), walls.v.copy()))
        np.matmul(np.matmul(qn, w.uh, out=w.scratch(w.uh.shape)), q.T, out=u[1:-1])
        xu, xv = u[1:-1], w.fv                   # f's modes are spent: v's interior, padded
        t = np.matmul(q, w.vh[:, :-1], out=w.scratch(v[:, 1:-1].shape))
        v[:, 1:-1] = np.matmul(t, qn.T, out=xv[:, :-1])
        # the residual from one divergence of the returned arrays: div u - g = D u - g'
        r = np.subtract(u[1:], u[:-1], out=w.scratch(grid.shape_cell))
        r += v[:, 1:]
        r -= v[:, :-1]
        r /= grid.h
        if g is not None:
            r -= g.values
        r -= r.sum() / r.size
        r = math.sqrt(float(np.vdot(r, r)))
        scale = max(math.sqrt(sq_g),
                    self._norm_d * math.sqrt(float(np.vdot(xu, xu)) + float(np.vdot(xv, xv))))
        res = r / scale if scale > 0.0 else 0.0
        if not res <= STOKES_TOL:
            d0 = divergence(self._noslip.solve(VectorField.zeros(grid) if f is None else f, trace))
            scale = max(scale, float(np.linalg.norm(d0.values - (0.0 if g is None else g.values))))
            res = r / scale if scale > 0.0 else 0.0
            if not res <= STOKES_TOL:
                raise SolverError(f"generalized Stokes solve: divergence residual {res:.3e} "
                                  f"above tol {STOKES_TOL:.1e}")
        return _adopt(VectorField, grid, u, v), p

    def _pressure(self, fu, fv, gh) -> ScalarField:
        """The mean-zero p of the spectral force (fu, fv), None for none, and
        g's transform gh."""
        s, _, inv, _ = self._symbols()          # p's constant mode goes with its mean
        ph = np.zeros(self.grid.shape_cell) if gh is None else (self.c - self.alpha * inv) * gh
        if fu is not None:
            ph[:-1] += s[:, None] * fu * inv[:-1]
            ph[:, :-1] += fv[:, :-1] * s * inv[:, :-1]
        p = self._q @ ph @ self._q.T
        p -= p.mean()
        return _adopt(ScalarField, self.grid, p)


def lift_solver(grid: Grid) -> GeneralizedStokes:
    """The stationary Stokes solver (alpha = 0, c = 1) of every lift, cached."""
    return _cached(("lift", grid.n), lambda: GeneralizedStokes(grid, 0.0, 1.0))


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
        self._blocks = [(qx, qy, 1.0 / (alpha - c * lam))
                        for qx, qy, lam in (_separable_eigenbasis(grid, *kinds)
                                            for kinds in (("node", "cell"), ("cell", "node")))]

    def solve(self, rhs: VectorField, trace: BoundaryTrace | None = None) -> VectorField:
        grid = self.grid
        u, v = np.empty(grid.shape_u), np.empty(grid.shape_v)
        bu, bv = rhs.u[1:-1], rhs.v[:, 1:-1]
        if trace is None:
            u[[0, -1]] = v[:, [0, -1]] = 0.0
        else:
            _write_normal_trace(u, v, trace)
            wu, wv = _wall_force(self.c, u, v, grid.h)
            bu, bv = bu.copy(), bv.copy()
            bu[[0, -1]] += wu
            bv[:, [0, -1]] += wv
        _diagonalized_solve(bu, *self._blocks[0], out=u[1:-1])
        _diagonalized_solve(bv, *self._blocks[1], out=v[:, 1:-1])
        return _adopt(VectorField, grid, u, v)


def _check_compatibility(g: ScalarField | None, trace: BoundaryTrace | None) -> None:
    """The one solvability check of divergence data against a wall flux;
    either may be None, for zero."""
    vol = 0.0 if g is None else integral(g)
    flux = 0.0 if trace is None else trace_integral(trace)
    scale = max(1.0, 0.0 if g is None else rescaled_norm(scalar_norm, g),
                0.0 if trace is None else trace.max_abs())
    if abs(vol - flux) > COMPAT_TOL * scale:
        raise CompatibilityError(
            f"divergence data and boundary flux disagree: volume integral {vol:.3e} "
            f"vs boundary flux {flux:.3e}")
