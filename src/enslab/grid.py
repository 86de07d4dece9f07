"""Staggered (MAC) grid on the unit square and its discrete operators.

Layout
------
The domain is [0,1] x [0,1] split into n * n square cells of side h = 1/n.

* Cell-centered scalars (pressure, divergence) live at
  ((i + 1/2) h, (j + 1/2) h), array shape (n, n), index [i, j] with i the
  x index.
* x-face values (first velocity component) live at (i h, (j + 1/2) h),
  shape (n + 1, n).  Faces i = 0 and i = n lie on the left/right walls.
* y-face values (second velocity component) live at ((i + 1/2) h, j h),
  shape (n, n + 1).  Faces j = 0 and j = n lie on the bottom/top walls.

This staggering makes the discrete divergence and gradient exact negative
adjoints of each other, which in turn makes the orthogonal-decomposition and
projection identities of the higher modules machine-precision statements
instead of O(h) ones.

Boundary closures (ghost values) of the Laplacians:

* scalar, zero-flux ("neumann", Lap_N):   ghost = interior value
* scalar, zero-value ("dirichlet", Lap_D): ghost = -interior value
* vector, no-slip (``vector_laplacian``): wall-normal faces are pinned to
  zero (their rows return 0 and their values are read as 0), tangential
  components use the odd ghost (value at the wall itself is zero);
* vector, tangential (``_tangential_laplacian``, Lap_t): tangential
  components use the odd ghost, while wall-normal faces remain genuine
  unknowns closed with an even ghost across the wall.  The even ghost is
  exactly the closure that makes div Lap_t w == Lap_D div w hold to
  round-off, i.e. the vector heat flow drives the divergence by the
  zero-value scalar heat flow.

The scalar Laplacians act only inside the solvers of ``linsolve``, through
their eigenbases.  The outward-normal signs of the wall faces are stated
once, in ``normal_trace`` and ``_write_normal_trace``.

Fields
------
``ScalarField``, ``VectorField`` and ``BoundaryTrace`` are three shapes of
one field implementation, ``_Field``: each names its arrays and their
shapes, and construction, ``zeros``, the arithmetic and ``max_abs`` exist
once, array by array.  Fields are validated where data enters: public
construction copies the arrays, checks the shapes, rejects non-finite values
and freezes.  The operators of this module, of ``linsolve`` and of
``advection`` build their results with ``_adopt``, which freezes the arrays
they have just allocated and trusts them.  Each flow state scans its
fields, its divergence among them, once (``stokes_lift.check_state``), and
``heat_oracle.heat_step`` builds its field by public construction, so a
non-finite value is still caught at the step that makes it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "BoundaryTrace",
    "divergence",
    "vector_laplacian",
    "scalar_inner",
    "scalar_norm",
    "integral",
    "face_inner",
    "face_norm",
    "rescaled_norm",
    "scalar_grad_inner",
    "grad_inner",
    "normal_trace",
    "with_normal_trace",
    "trace_integral",
    "scalar_from_function",
    "vector_from_functions",
    "vector_from_stream",
]


@dataclass(frozen=True)
class Grid:
    """Geometry of the staggered unit-square grid: n x n square cells."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"grid too coarse: n={self.n} < 4")
        if (1.0 / self.n) * self.n != 1.0:
            raise ValueError(f"1/n*n != 1 in floating point for n={self.n}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def shape_cell(self) -> tuple[int, int]:
        return (self.n, self.n)

    @property
    def shape_u(self) -> tuple[int, int]:
        return (self.n + 1, self.n)

    @property
    def shape_v(self) -> tuple[int, int]:
        return (self.n, self.n + 1)

    # 1D coordinates along either axis; nodes() is also the x (y) of the u (v) faces
    def cells(self) -> np.ndarray:
        return (np.arange(self.n) + 0.5) * self.h

    def nodes(self) -> np.ndarray:
        return np.arange(self.n + 1) * self.h


def _adopt(cls, grid: "Grid", *arrays: np.ndarray):
    """A field of class cls over C-ordered float64 arrays of the right shapes
    that the caller has just allocated and holds no other reference to.

    Freezes the arrays in place: no copy, no shape check, no finiteness scan.
    """
    obj = object.__new__(cls)
    for arr in arrays:
        arr.setflags(write=False)
    obj.__dict__.update(zip(cls.ARRAYS, arrays), grid=grid, arrays=arrays)
    return obj


def _line_aligned(n: int) -> np.ndarray:
    """An uninitialized float64 vector of n entries starting on a 64-byte line."""
    raw = np.empty(n + 8)
    return raw[(-raw.ctypes.data % 64) // 8:][:n]


@dataclass(frozen=True)
class _Field:
    """The one field implementation: immutable float64 arrays on a grid,
    named by the subclass's ``ARRAYS``, of the shapes its ``shapes(grid)``
    gives, and held in that order in ``arrays``.  Every operation acts array
    by array and keeps the class of its operands."""

    grid: Grid

    def __post_init__(self) -> None:
        arrays = []
        for name, shape in zip(self.ARRAYS, self.shapes(self.grid)):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True, order="C")
            if arr.shape != shape:
                raise DimensionMismatchError(
                    f"{type(self).__name__}.{name}: expected shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{type(self).__name__}.{name}: non-finite values")
            arr.setflags(write=False)
            arrays.append(arr)
        self.__dict__.update(zip(self.ARRAYS, arrays), arrays=tuple(arrays))

    @classmethod
    def zeros(cls, grid: Grid):
        return _adopt(cls, grid, *map(np.zeros, cls.shapes(grid)))

    def _like(self, other: "_Field") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        _same_grid(self.grid, other.grid)

    def __add__(self, other):
        self._like(other)
        return _adopt(type(self), self.grid, *map(np.add, self.arrays, other.arrays))

    def __sub__(self, other):
        self._like(other)
        return _adopt(type(self), self.grid, *map(np.subtract, self.arrays, other.arrays))

    def __mul__(self, a: float):
        a = float(a)
        return _adopt(type(self), self.grid, *[x * a for x in self.arrays])

    __rmul__ = __mul__

    def __neg__(self):
        return _adopt(type(self), self.grid, *map(np.negative, self.arrays))

    def max_abs(self) -> float:
        return max([float(np.max(np.abs(x))) for x in self.arrays])


@dataclass(frozen=True)
class ScalarField(_Field):
    """One float64 value per cell center; immutable."""

    values: np.ndarray
    ARRAYS = ("values",)

    @staticmethod
    def shapes(grid: Grid) -> tuple[tuple[int, ...], ...]:
        return (grid.shape_cell,)


@dataclass(frozen=True)
class VectorField(_Field):
    """Face-normal velocity components; immutable.

    ``u`` holds the x component on x-faces (shape (n+1, n)), ``v`` the
    y component on y-faces (shape (n, n+1)).
    """

    u: np.ndarray
    v: np.ndarray
    ARRAYS = ("u", "v")

    @staticmethod
    def shapes(grid: Grid) -> tuple[tuple[int, ...], ...]:
        return (grid.shape_u, grid.shape_v)


@dataclass(frozen=True)
class BoundaryTrace(_Field):
    """Outward normal velocity u.n, one value per boundary face.

    Each array has length n: ``left``/``right`` hold the x-faces on the
    walls x = 0 and x = 1, ``bottom``/``top`` the y-faces on y = 0 and y = 1.
    Values are signed with respect to the outward normal: a positive value
    means outflow on every wall.
    """

    left: np.ndarray
    right: np.ndarray
    bottom: np.ndarray
    top: np.ndarray
    ARRAYS = ("left", "right", "bottom", "top")

    @staticmethod
    def shapes(grid: Grid) -> tuple[tuple[int, ...], ...]:
        return ((grid.n,),) * 4

    @staticmethod
    def constant(grid: Grid, value: float) -> "BoundaryTrace":
        return BoundaryTrace(grid, *[np.full(s, float(value)) for s in BoundaryTrace.shapes(grid)])


def _same_grid(a: Grid, b: Grid) -> None:
    if a is not b and a != b:
        raise DimensionMismatchError(f"grids differ: {a} vs {b}")


# ---------------------------------------------------------------------------
# First-order operators
# ---------------------------------------------------------------------------

def divergence(w: VectorField) -> ScalarField:
    """Flux-form divergence per cell: includes wall-face contributions."""
    return _adopt(ScalarField, w.grid, _divergence_values(w.u, w.v, w.grid.h))


def _divergence_values(u: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Cell divergence of face arrays, fresh; leading stack axes are kept."""
    d = np.subtract(u[..., 1:, :], u[..., :-1, :])
    d += v[..., :, 1:]
    d -= v[..., :, :-1]
    d /= h
    return d


# ---------------------------------------------------------------------------
# Laplacians
# ---------------------------------------------------------------------------

def _odd_difference(a: np.ndarray) -> np.ndarray:
    """Second difference along the last axis with the odd ghost at both ends;
    leading axes are kept."""
    d = np.empty(a.shape)
    d[..., 1:-1] = a[..., 2:] - 2.0 * a[..., 1:-1] + a[..., :-2]
    d[..., 0] = a[..., 1] - 3.0 * a[..., 0]
    d[..., -1] = a[..., -2] - 3.0 * a[..., -1]
    return d


def _tangential_wall_rows(a: np.ndarray) -> np.ndarray:
    """Rows 0 and -1 of h^2 times the tangential Laplacian of one component.

    Axis -2 of a runs along the component's normal (u, or v with its last
    two axes swapped): its end rows are the wall-normal faces, closed with
    the even ghost across the wall; along axis -1 the tangential value
    vanishes at the walls (odd ghost).  Leading axes are kept.
    """
    ends = a[..., [0, -1], :]
    return 2.0 * (a[..., [1, -2], :] - ends) + _odd_difference(ends)


def _tangential_laplacian(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h^2 times the "tangential" closure of the Laplacian on face arrays,
    over their last two axes; leading stack axes are kept.

    Tangential components use the odd ghost; wall-normal faces are unknowns
    closed with the even ghost across the wall.
    """
    lu = np.empty(u.shape)
    lv = np.empty(v.shape)
    # each component is written through a view whose axis -2 is its normal
    for a, lap in ((u, lu), (v.swapaxes(-1, -2), lv.swapaxes(-1, -2))):
        # a[2:] - 2 a[1:-1] + a[:-2] + the odd difference, in this order,
        # formed in the output
        inner = lap[..., 1:-1, :]
        np.multiply(a[..., 1:-1, :], 2.0, out=inner)
        np.subtract(a[..., 2:, :], inner, out=inner)
        inner += a[..., :-2, :]
        inner += _odd_difference(a[..., 1:-1, :])
        lap[..., [0, -1], :] = _tangential_wall_rows(a)
    return lu, lv


def vector_laplacian(w: VectorField) -> VectorField:
    """Component-wise 5-point Laplacian with the no-slip closure.

    Wall-normal faces are read as zero and their rows return zero;
    tangential components use the odd ghost.  This is the tangential
    closure applied to w with its wall-normal faces zeroed, with the
    wall-normal rows of the result then zeroed.
    """
    lu, lv = _noslip_laplacian(w.u, w.v)
    h2 = w.grid.h * w.grid.h
    return _adopt(VectorField, w.grid, lu / h2, lv / h2)


def _noslip_laplacian(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """h^2 times the "noslip" closure of the Laplacian on face arrays, over
    their last two axes; leading stack axes are kept."""
    u, v = u.copy(), v.copy()
    u[..., [0, -1], :] = 0.0
    v[..., :, [0, -1]] = 0.0
    lu, lv = _tangential_laplacian(u, v)
    lu[..., [0, -1], :] = 0.0
    lv[..., :, [0, -1]] = 0.0
    return lu, lv


# ---------------------------------------------------------------------------
# Inner products, norms, energies
# ---------------------------------------------------------------------------

def scalar_inner(p: ScalarField, q: ScalarField) -> float:
    _same_grid(p.grid, q.grid)
    h2 = p.grid.h * p.grid.h
    return float(np.dot(p.values.ravel(), q.values.ravel()) * h2)


def scalar_norm(p: ScalarField) -> float:
    return float(np.sqrt(max(scalar_inner(p, p), 0.0)))


def integral(p: ScalarField) -> float:
    return float(np.sum(p.values) * p.grid.h * p.grid.h)


def face_inner(a: VectorField, b: VectorField) -> float:
    _same_grid(a.grid, b.grid)
    h2 = a.grid.h * a.grid.h
    return float((np.dot(a.u.ravel(), b.u.ravel()) + np.dot(a.v.ravel(), b.v.ravel())) * h2)


def face_norm(a: VectorField) -> float:
    return float(np.sqrt(max(face_inner(a, a), 0.0)))


def rescaled_norm(norm, x) -> float:
    """norm(x) of an array or field x, with no overflow warning: a sum of
    squares that overflows is measured again on x scaled by its largest
    magnitude.  Finite results are norm(x) bit for bit; non-finite x has a
    non-finite norm."""
    with np.errstate(over="ignore", invalid="ignore"):
        n = norm(x)
        if n == np.inf:
            top = float(np.abs(x).max()) if isinstance(x, np.ndarray) else x.max_abs()
            n = top * norm(x * (1.0 / top))
    return n


def scalar_grad_inner(p: ScalarField, q: ScalarField, bc: str) -> float:
    """Gradient-energy pairing equal to <-Lap p, q> exactly, with Lap the
    cell Laplacian of closure bc (Lap_N or Lap_D).

    bc="neumann": interior cell-to-cell differences only.
    bc="dirichlet": interior differences plus the wall terms 2*p0*q0 coming
    from the half-cell gradient against the zero wall value.
    """
    _same_grid(p.grid, q.grid)
    pv, qv = p.values, q.values
    s = np.dot((pv[1:, :] - pv[:-1, :]).ravel(), (qv[1:, :] - qv[:-1, :]).ravel())
    s += np.dot((pv[:, 1:] - pv[:, :-1]).ravel(), (qv[:, 1:] - qv[:, :-1]).ravel())
    if bc == "dirichlet":
        s += 2.0 * (
            np.dot(pv[0, :], qv[0, :])
            + np.dot(pv[-1, :], qv[-1, :])
            + np.dot(pv[:, 0], qv[:, 0])
            + np.dot(pv[:, -1], qv[:, -1])
        )
    elif bc != "neumann":
        raise ValueError(f"unknown bc {bc!r}; expected 'neumann' or 'dirichlet'")
    return float(s)


def grad_inner(a: VectorField, b: VectorField) -> float:
    """Discrete <grad a, grad b> for no-slip vector fields.

    Equals <-vector_laplacian(a), b> exactly whenever the
    wall-normal faces of both fields vanish; the pairing underlies every
    energy ledger and orthogonality statement downstream.
    """
    _same_grid(a.grid, b.grid)
    au, av, bu, bv = a.u, a.v, b.u, b.v
    # u component: differences across cells in x (wall faces enter with the
    # values stored there), interior differences in y plus odd-ghost wall terms
    s = np.dot((au[1:, :] - au[:-1, :]).ravel(), (bu[1:, :] - bu[:-1, :]).ravel())
    s += np.dot((au[:, 1:] - au[:, :-1]).ravel(), (bu[:, 1:] - bu[:, :-1]).ravel())
    s += 2.0 * (np.dot(au[:, 0], bu[:, 0]) + np.dot(au[:, -1], bu[:, -1]))
    # v component, symmetric roles
    s += np.dot((av[:, 1:] - av[:, :-1]).ravel(), (bv[:, 1:] - bv[:, :-1]).ravel())
    s += np.dot((av[1:, :] - av[:-1, :]).ravel(), (bv[1:, :] - bv[:-1, :]).ravel())
    s += 2.0 * (np.dot(av[0, :], bv[0, :]) + np.dot(av[-1, :], bv[-1, :]))
    return float(s)


# ---------------------------------------------------------------------------
# Boundary traces
# ---------------------------------------------------------------------------

def normal_trace(w: VectorField) -> BoundaryTrace:
    """Extract u.n (outward-signed) from the wall faces of a vector field."""
    return _adopt(BoundaryTrace, w.grid, -w.u[0, :], w.u[-1, :].copy(), -w.v[:, 0], w.v[:, -1].copy())


def with_normal_trace(w: VectorField, trace: BoundaryTrace) -> VectorField:
    """Return a copy of w whose wall faces realize the given u.n trace."""
    _same_grid(w.grid, trace.grid)
    u = w.u.copy()
    v = w.v.copy()
    _write_normal_trace(u, v, trace)
    return _adopt(VectorField, w.grid, u, v)


def _write_normal_trace(u: np.ndarray, v: np.ndarray, trace: BoundaryTrace) -> None:
    """Write the outward-signed trace into the wall faces of u and v in place."""
    u[0], u[-1], v[:, 0], v[:, -1] = -trace.left, trace.right, -trace.bottom, trace.top


def trace_integral(trace: BoundaryTrace) -> float:
    """Perimeter integral of the trace (face length h per boundary face)."""
    h = trace.grid.h
    return float(h * (np.sum(trace.left) + np.sum(trace.right) + np.sum(trace.bottom) + np.sum(trace.top)))


# ---------------------------------------------------------------------------
# Constructors from closed-form functions
# ---------------------------------------------------------------------------

def scalar_from_function(grid: Grid, f) -> ScalarField:
    c = grid.cells()
    return ScalarField(grid, np.broadcast_to(f(c[:, None], c[None, :]), grid.shape_cell).copy())


def vector_from_functions(grid: Grid, fu, fv) -> VectorField:
    nodes, cells = grid.nodes(), grid.cells()
    u = np.broadcast_to(fu(nodes[:, None], cells[None, :]), grid.shape_u).copy()
    v = np.broadcast_to(fv(cells[:, None], nodes[None, :]), grid.shape_v).copy()
    return VectorField(grid, u, v)


def vector_from_stream(grid: Grid, psi: np.ndarray) -> VectorField:
    """Discrete curl of a node-based stream function (shape (n+1, n+1)).

    The result is divergence-free to round-off by telescoping.
    """
    psi = np.asarray(psi, dtype=np.float64)
    if psi.shape != (grid.n + 1, grid.n + 1):
        raise DimensionMismatchError(f"stream function: expected {(grid.n + 1, grid.n + 1)}, got {psi.shape}")
    return VectorField(grid, *_curl_values(psi, grid.h))


def _curl_values(psi: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The face arrays of the discrete curl of node stream functions; leading
    stack axes are kept."""
    return (psi[..., :, 1:] - psi[..., :, :-1]) / h, -(psi[..., 1:, :] - psi[..., :-1, :]) / h
