"""Tolerance table, norm registry, inequality margins, rate fits, orders.

Every inequality check in the package reports a *margin* = RHS - LHS, so
margin >= 0 means the inequality holds.  Judgment (pass/fail) is applied
separately through :func:`passes` with one global slack policy, keeping the
measurement and the thresholds in one place.

Every bound the package judges a measurement against is named once in the
table below, with what it bounds and the scale it multiplies.  ``linsolve``
cannot import this module (this module imports it), so its two bounds live
there and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CheckFailure
from .grid import (
    ScalarField,
    VectorField,
    face_norm,
    grad_inner,
    integral,
    scalar_grad_inner,
    scalar_norm,
)
from .linsolve import COMPAT_TOL, STOKES_TOL, htilde_solver

__all__ = [
    "OrderEstimate",
    "passes",
    "norms",
    "fine_norm",
    "htilde_norm",
    "fit_decay_rate",
    "convergence_order",
    # the tolerance table
    "SLACK_ABS", "SLACK_REL", "TINY", "LIFT_FLOOR", "WALL_FLOOR", "DRIFT_RTOL",
    "DRIFT_ABS", "RECONSTRUCT_TOL", "WALL_FOLLOW_TOL", "SPLIT_TOL",
    "SPLIT_RECONSTRUCT_TOL", "SPLIT_WALL_TOL", "SOLVABILITY_TOL", "GAP_DECAY_TOL",
    "NET_SOURCE_TOL", "MASS_TOL", "CONTRACTION_RTOL", "GRAM_TOL", "EIGEN_RESIDUAL_TOL",
    "EIGEN_ORDER_RTOL", "PARITY_RTOL", "DIV_CEILING", "WALL_FOLLOW_RUN_TOL",
    "LEDGER_RATE_TOL", "STOKES_TOL", "COMPAT_TOL",
]

# ---------------------------------------------------------------------------
# Tolerance table.  A check passes while its measurement x <= NAME * scale,
# with the scale after "x" in each comment (none: an absolute bound).
# ||.|| is the discrete L2 norm, max|.| the largest value, h the spacing.
# ---------------------------------------------------------------------------

SLACK_ABS = 1e-8    # passes(): margin >= -(SLACK_ABS + SLACK_REL * |scale|)
SLACK_REL = 1e-6
TINY = 1e-300       # guard: ratios divide by max(x, TINY); ||g+|| <= ||g|| gets + TINY

# Round-off floors of a velocity u (stokes_lift.lift_floor and wall_floor).
LIFT_FLOOR = 1e-12  # ||div|| at or below is not lifted; x max(1, ||u|| / h)
WALL_FLOOR = 1e-12  # max|u.n| at or below counts as zero walls; x max(1, max|u|)

# States of both systems (stokes_lift.check_state, the wall checks).
DRIFT_RTOL = 1e-7   # ||div u - g|| (sr: less its mean); x max(||g||, ||u|| / h), + DRIFT_ABS
DRIFT_ABS = 1e-14
RECONSTRUCT_TOL = 1e-13  # cache max|u - (v + z)|, and `enslab decompose`; x max(1, max|u|)
WALL_FOLLOW_TOL = 1e-8   # sr state: max|h - u.n|; x max(1, max|u|)

# The split u = v + z (stokes_lift.Decomposition.validate and decompose).
SPLIT_TOL = 1e-9    # ||div v||; x max(||u|| / h, TINY).  |<grad v, grad z>|;
                    # x max(|v|_1 |z|_1, |u|_1^2 / 2, TINY)
SPLIT_RECONSTRUCT_TOL = 1e-14  # max|v + z - u|; x max(1, max|u|)
SPLIT_WALL_TOL = 1e-10         # max|u.n| of the input; x max(1, max|u|)

# Boundary relaxation (ens_sr), gap = oint h - int g.
SOLVABILITY_TOL = 1e-7  # |gap| before a constructive step; x max(1, ||g||, max|h|)
GAP_DECAY_TOL = 1e-9    # |gap+| - e^(-lam dt) |gap| per step and over a run (scale
                        # at t = 0, the `gap_decay_excess` margin); x max(1, ||g||, max|h|)
NET_SOURCE_TOL = 1e-8   # |int rhs| of the pressure problem; x max(1, ||rhs||)

# Heat oracle (heat_oracle).
MASS_TOL = 1e-12          # zero-flux |int g - m0|; x max(1, |m0|)
CONTRACTION_RTOL = 1e-12  # ||g+|| - ||g||; x ||g||, + TINY

# Galerkin route (galerkin, `enslab basis`).
GRAM_TOL = 1e-10            # max |<w_i, w_j> - delta_ij|
EIGEN_RESIDUAL_TOL = 1e-8   # ||P K w - lam w||; x (1 + lam)
EIGEN_ORDER_RTOL = 1e-9     # lam_j - lam_{j+1}; x lam_max
PARITY_RTOL = 1e-10         # a mode's part of the other reflection parity; x ||w||

# Margins of the run summaries (cli).
DIV_CEILING = 1e-9          # max|div u| of a divergence-free run; max|div w|, max|w.n| of modes
WALL_FOLLOW_RUN_TOL = 1e-8  # max over the run of max|h - u.n|; x max(1, max_t ||u||)
LEDGER_RATE_TOL = 1e-6      # Galerkin ledger imbalance per unit time

# Defined in linsolve, which cannot import this module, and re-exported:
# STOKES_TOL bounds the divergence residual ||g' - D u|| of the velocity a
# generalized-Stokes solve returns, x max(||g'||, ||D|| ||u||), and only if
# that fails, x max(||g'||, ||g' - D u0||, ||D|| ||u||);
# COMPAT_TOL bounds |int g - oint trace|; x max(1, ||g||, max|trace|).


def passes(margin: float, scale: float = 1.0) -> bool:
    """Single global slack policy: margin >= -(abs slack + rel slack * scale)."""
    return margin >= -(SLACK_ABS + SLACK_REL * abs(scale))


def htilde_norm(g: ScalarField) -> float:
    """Dual-space norm sqrt(<g, (I - Lap_N)^{-1} g>) of the mean-adjusted part.

    This is the package's fixed discrete realization of the dual of H^1; any
    spectrally equivalent choice would do for trend measurement, and this one
    is documented precisely so results are reproducible.
    """
    vals = g.values - g.values.mean()
    x = htilde_solver(g.grid)(vals)
    q = float(np.dot(vals.ravel(), x.ravel())) * g.grid.h ** 2
    return math.sqrt(max(q, 0.0))


def fine_norm(g: ScalarField) -> float:
    """scalar_norm(g), measured on g scaled exactly by a power of two when its
    data lie below 2**-500, so that their squares do not underflow."""
    top = g.max_abs()
    if not 0.0 < top < 2.0 ** -500:
        return scalar_norm(g)
    e = math.frexp(top)[1]
    return math.ldexp(scalar_norm(ScalarField(g.grid, np.ldexp(g.values, -e))), e)


def norms(f, time: float = 0.0) -> dict:
    """L2, H1-seminorm, and (for scalars) dual-norm measurements.

    An overflowed measurement is a CheckFailure naming it and ``time``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # judged below
        if isinstance(f, ScalarField):
            l2 = fine_norm(f)
            h1 = math.sqrt(max(scalar_grad_inner(f, f, "neumann"), 0.0))
            metrics = {
                "l2": l2,
                "h1_semi": h1,
                "h1": math.sqrt(l2 * l2 + h1 * h1),
                "mean": integral(f),
                "htilde_minus1": htilde_norm(f),
            }
        elif isinstance(f, VectorField):
            l2 = face_norm(f)
            h1 = math.sqrt(max(grad_inner(f, f), 0.0))
            metrics = {"l2": l2, "h1_semi": h1, "h1": math.sqrt(l2 * l2 + h1 * h1)}
        else:
            raise TypeError(f"norms: unsupported field type {type(f).__name__}")
    for name, value in metrics.items():
        if not math.isfinite(value):
            raise CheckFailure(f"non-finite measurement {name} at t = {time:.6g}")
    return metrics


def fit_decay_rate(times, values) -> float:
    """Least-squares slope of log(values) against times.

    Requires at least 10 samples with positive values and non-degenerate
    times; the fitted slope of an exact exponential is recovered to
    round-off.  It is fitted in closed form over the times less the first,
    divided by their span, so that steps of 1e-300 fit as others do.
    """
    t = np.asarray(times, dtype=np.float64).ravel()
    y = np.asarray(values, dtype=np.float64).ravel()
    if t.size != y.size:
        raise ValueError("fit_decay_rate: times and values differ in length")
    if t.size < 10:
        raise ValueError(f"fit_decay_rate: need at least 10 samples, got {t.size}")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError("fit_decay_rate: non-finite samples")
    if np.any(y <= 0.0):
        raise ValueError("fit_decay_rate: values must be positive")
    span = np.ptp(t)
    if span == 0.0:
        raise ValueError("fit_decay_rate: degenerate time series")
    s = (t - t[0]) / span
    s -= s.mean()
    logy = np.log(y)
    return float(s @ (logy - logy.mean()) / (s @ s)) / float(span)


@dataclass(frozen=True)
class OrderEstimate:
    """Convergence order from an error triple at resolutions n, 2n, 4n."""

    order_coarse: float   # log2(e1/e2)
    order_fine: float     # log2(e2/e3)
    mean: float
    monotone: bool


def convergence_order(e1: float, e2: float, e3: float) -> OrderEstimate:
    """Observed orders from errors at successive halvings of h (or dt)."""
    for e in (e1, e2, e3):
        if not (math.isfinite(e) and e > 0.0):
            raise ValueError(f"convergence_order: errors must be positive, got {(e1, e2, e3)}")
    o12 = math.log2(e1 / e2)
    o23 = math.log2(e2 / e3)
    return OrderEstimate(o12, o23, 0.5 * (o12 + o23), monotone=(e1 > e2 > e3))
