"""Norm registry, rate fitting, order estimation, dual-norm bound."""

import math

import numpy as np
import pytest

from enslab.diagnostics import (
    OrderEstimate,
    convergence_order,
    fine_norm,
    fit_decay_rate,
    htilde_norm,
    norms,
    passes,
)
from enslab.grid import Grid, ScalarField, VectorField, scalar_norm
from oracles import laplacian_neumann_matrix


class TestRecord:
    def test_slack_policy(self):
        assert passes(0.0)
        assert passes(-1e-9)
        assert passes(-1e-6 * 0.5, scale=1.0)
        assert not passes(-1e-3, scale=1.0)


class TestNorms:
    def test_zero_fields(self):
        g = Grid(16)
        rs = norms(ScalarField.zeros(g))
        rv = norms(VectorField.zeros(g))
        assert rs["l2"] == 0.0 and rs["h1_semi"] == 0.0 and rs["htilde_minus1"] == 0.0
        assert rv["l2"] == 0.0 and rv["h1_semi"] == 0.0

    def test_constant_scalar(self):
        g = Grid(16)
        r = norms(ScalarField(g, np.ones(g.shape_cell)))
        assert abs(r["l2"] - 1.0) <= 1e-13
        assert r["h1_semi"] == 0.0

    def test_cosine_l2_frozen(self):
        g = Grid(64)
        x = g.cells()[:, None]
        y = g.cells()[None, :]
        f = ScalarField(g, np.cos(np.pi * x) * np.cos(np.pi * y))
        r = norms(f)
        assert abs(r["l2"] - 0.5) <= 1e-3

    def test_homogeneity_all_norms(self):
        g = Grid(16)
        rng = np.random.default_rng(1)
        f = ScalarField(g, rng.standard_normal(g.shape_cell))
        w = VectorField(g, rng.standard_normal(g.shape_u), rng.standard_normal(g.shape_v))
        a = -3.7
        rs1, rs2 = norms(f), norms(f * a)
        for k in ("l2", "h1_semi", "h1", "htilde_minus1"):
            assert abs(rs2[k] - abs(a) * rs1[k]) <= 1e-12 * max(1.0, rs1[k])
        rv1, rv2 = norms(w), norms(w * a)
        for k in ("l2", "h1_semi", "h1"):
            assert abs(rv2[k] - abs(a) * rv1[k]) <= 1e-12 * max(1.0, rv1[k])

    def test_htilde_bounded_by_l2_via_spectrum(self):
        # dual norm <= ||g|| / sqrt(1 + lambda_1) on mean-zero fields
        g = Grid(16)
        L = laplacian_neumann_matrix(g).toarray()
        lam = np.sort(np.linalg.eigvalsh(-0.5 * (L + L.T)))
        lam1 = lam[1]  # smallest nonzero
        assert lam[0] <= 1e-10
        bound = 1.0 / math.sqrt(1.0 + lam1)
        rng = np.random.default_rng(2)
        for _ in range(5):
            vals = rng.standard_normal(g.shape_cell)
            vals -= vals.mean()
            f = ScalarField(g, vals)
            assert htilde_norm(f) <= bound * scalar_norm(f) * (1.0 + 1e-10)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            norms(np.zeros(3))

    def test_tiny_data_measured_without_underflow(self):
        # data below 2**-500 are measured scaled by a power of two: exactly
        # the scaled norm, with no overflow of the scale at 1e-320
        g = Grid(16)
        f = ScalarField(g, np.random.default_rng(3).standard_normal(g.shape_cell))
        assert fine_norm(f) == scalar_norm(f)
        for k in (-600, -1000):
            tiny = ScalarField(g, np.ldexp(f.values, k))
            assert scalar_norm(tiny) != math.ldexp(scalar_norm(f), k)
            assert fine_norm(tiny) == norms(tiny)["l2"] == math.ldexp(scalar_norm(f), k)
        assert fine_norm(ScalarField(g, np.full(g.shape_cell, 1e-320))) > 0.0


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 2.0, 25)
        rate = fit_decay_rate(t, np.exp(-2.0 * t))
        assert abs(rate + 2.0) <= 1e-9

    def test_requires_ten_samples(self):
        t = np.linspace(0, 1, 9)
        with pytest.raises(ValueError):
            fit_decay_rate(t, np.exp(-t))

    def test_rejects_nonpositive_values(self):
        t = np.linspace(0, 1, 12)
        y = np.exp(-t)
        y[5] = 0.0
        with pytest.raises(ValueError):
            fit_decay_rate(t, y)

    def test_steps_of_1e_300(self):
        # np.polyfit's SVD does not converge on these times
        t = 1e-300 * np.arange(12)
        rate = fit_decay_rate(t, np.exp(-2e300 * t))
        assert abs(rate / -2e300 - 1.0) <= 1e-12

    def test_rejects_degenerate_times(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.zeros(12), np.ones(12))


class TestOrderEstimate:
    def test_second_order_triple(self):
        est = convergence_order(4.0, 1.0, 0.25)
        assert est.order_coarse == 2.0 and est.order_fine == 2.0
        assert est.mean == 2.0 and est.monotone

    def test_first_order_triple(self):
        est = convergence_order(2.0, 1.0, 0.5)
        assert est.mean == 1.0

    def test_non_monotone_flagged_not_rejected(self):
        est = convergence_order(1.0, 2.0, 0.5)
        assert not est.monotone
        assert isinstance(est, OrderEstimate)

    def test_nonpositive_error_rejected(self):
        with pytest.raises(ValueError):
            convergence_order(1.0, 0.0, 0.1)
