"""Transport operator: adjointness, skew neutrality, oracle comparisons."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enslab.advection import (
    advect,
    adjoint_advect,
    centered_differences,
    skew_advect,
    transport_coefficients,
    trilinear,
)
from enslab.grid import Grid, VectorField, face_inner, face_norm


def random_vector(grid, rng, zero_walls=False):
    u = rng.standard_normal(grid.shape_u)
    v = rng.standard_normal(grid.shape_v)
    if zero_walls:
        u[0, :] = u[-1, :] = 0.0
        v[:, 0] = v[:, -1] = 0.0
    return VectorField(grid, u, v)


def quad_advect(w, b, c):
    """Independent plain-loop evaluation of <advect(w, b), c>."""
    g = w.grid
    h = g.h
    nx, ny = g.nx, g.ny
    total = 0.0
    for i in range(1, nx):
        for j in range(ny):
            wx = w.u[i, j]
            dxu = (b.u[i + 1, j] - b.u[i - 1, j]) / (2 * h)
            wy = 0.25 * (w.v[i - 1, j] + w.v[i, j] + w.v[i - 1, j + 1] + w.v[i, j + 1])
            lo = -b.u[i, 0] if j == 0 else b.u[i, j - 1]
            hi = -b.u[i, ny - 1] if j == ny - 1 else b.u[i, j + 1]
            dyu = (hi - lo) / (2 * h)
            total += c.u[i, j] * (wx * dxu + wy * dyu)
    for i in range(nx):
        for j in range(1, ny):
            wyv = w.v[i, j]
            dyv = (b.v[i, j + 1] - b.v[i, j - 1]) / (2 * h)
            wxv = 0.25 * (w.u[i, j - 1] + w.u[i + 1, j - 1] + w.u[i, j] + w.u[i + 1, j])
            lo = -b.v[0, j] if i == 0 else b.v[i - 1, j]
            hi = -b.v[nx - 1, j] if i == nx - 1 else b.v[i + 1, j]
            dxv = (hi - lo) / (2 * h)
            total += c.v[i, j] * (wxv * dxv + wyv * dyv)
    return total * h * h


def padded_adjoint(w, c):
    """adjoint_advect written with np.pad for the closures: zero rows across
    the walls, the edge value along them."""
    g = w.grid
    h2 = 2.0 * g.h
    _, wy, wx, _ = transport_coefficients(w.u, w.v)
    p = np.zeros(g.shape_u)
    p[1:-1, :] = w.u[1:-1, :] * c.u[1:-1, :]
    pp = np.pad(p, ((1, 1), (0, 0)))
    atu = (pp[:-2, :] - pp[2:, :]) / h2
    qq = np.pad(wy * c.u[1:-1, :], ((0, 0), (1, 1)), mode="edge")
    atu[1:-1, :] += (qq[:, :-2] - qq[:, 2:]) / h2
    p2 = np.zeros(g.shape_v)
    p2[:, 1:-1] = w.v[:, 1:-1] * c.v[:, 1:-1]
    pp2 = np.pad(p2, ((0, 0), (1, 1)))
    atv = (pp2[:, :-2] - pp2[:, 2:]) / h2
    qq2 = np.pad(wx * c.v[:, 1:-1], ((1, 1), (0, 0)), mode="edge")
    atv[:, 1:-1] += (qq2[:-2, :] - qq2[2:, :]) / h2
    return atu, atv


def pack(w):
    return np.concatenate([w.u.ravel(), w.v.ravel()])


def unpack(grid, x):
    nu = (grid.nx + 1) * grid.ny
    return VectorField(grid, x[:nu].reshape(grid.shape_u), x[nu:].reshape(grid.shape_v))


class TestAdvectForm:
    def test_uniform_stream_of_linear_profile_is_exact(self):
        g = Grid(16)
        w = VectorField(g, np.ones(g.shape_u), np.zeros(g.shape_v))
        bu = np.broadcast_to(g.xface_x()[:, None], g.shape_u).copy()
        b = VectorField(g, bu, np.zeros(g.shape_v))
        a = advect(w, b)
        assert np.allclose(a.u[1:-1, :], 1.0, atol=1e-14)
        assert np.all(a.u[0, :] == 0.0) and np.all(a.u[-1, :] == 0.0)
        assert np.all(a.v == 0.0)

    def test_matches_plain_loop_oracle(self):
        g = Grid(8)
        rng = np.random.default_rng(11)
        for _ in range(4):
            w = random_vector(g, rng)
            b = random_vector(g, rng)
            c = random_vector(g, rng)
            fast = face_inner(advect(w, b), c)
            slow = quad_advect(w, b, c)
            assert abs(fast - slow) <= 1e-13 * max(1.0, abs(slow))

    def test_wall_rows_of_output_vanish(self):
        g = Grid(8)
        rng = np.random.default_rng(5)
        a = advect(random_vector(g, rng), random_vector(g, rng))
        assert np.all(a.u[0, :] == 0.0) and np.all(a.u[-1, :] == 0.0)
        assert np.all(a.v[:, 0] == 0.0) and np.all(a.v[:, -1] == 0.0)

    def test_bilinear_in_transported_field(self):
        g = Grid(8)
        rng = np.random.default_rng(7)
        w = random_vector(g, rng)
        b1 = random_vector(g, rng)
        b2 = random_vector(g, rng)
        lhs = advect(w, b1 + b2 * 2.0)
        rhs = advect(w, b1) + advect(w, b2) * 2.0
        assert face_norm(lhs - rhs) <= 1e-13 * max(1.0, face_norm(rhs))


    def test_stacked_factors_match_each_field(self):
        # the Galerkin tensors apply the two factors of advect to stacks of
        # fields at once; every slice must equal the single-field result
        g = Grid(8)
        rng = np.random.default_rng(13)
        fields = [random_vector(g, rng) for _ in range(3)]
        us = np.stack([f.u for f in fields])
        vs = np.stack([f.v for f in fields])
        stacked = transport_coefficients(us, vs) + centered_differences(us, vs, g.h)
        for i, f in enumerate(fields):
            single = transport_coefficients(f.u, f.v) + centered_differences(f.u, f.v, g.h)
            for got, want in zip(stacked, single):
                assert np.array_equal(got[i], want)

class TestAdjoint:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_adjoint_identity_random_fields(self, n):
        g = Grid(n)
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            w = random_vector(g, rng)
            b = random_vector(g, rng)
            c = random_vector(g, rng)
            lhs = face_inner(advect(w, b), c)
            rhs = face_inner(b, adjoint_advect(w, c))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(4, 33), seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_padded_reference(self, n, seed):
        g = Grid(n)
        rng = np.random.default_rng(seed)
        w = random_vector(g, rng)
        c = random_vector(g, rng)
        at = adjoint_advect(w, c)
        for got, want in zip((at.u, at.v), padded_adjoint(w, c)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_dense_matrix_is_exact_transpose(self):
        g = Grid(8)
        rng = np.random.default_rng(3)
        w = random_vector(g, rng)
        nf = (g.nx + 1) * g.ny + g.nx * (g.ny + 1)
        fwd = np.zeros((nf, nf))
        bwd = np.zeros((nf, nf))
        for k in range(nf):
            e = np.zeros(nf)
            e[k] = 1.0
            fwd[:, k] = pack(advect(w, unpack(g, e)))
            bwd[:, k] = pack(adjoint_advect(w, unpack(g, e)))
        scale = np.abs(fwd).max()
        assert np.abs(fwd.T - bwd).max() <= 1e-13 * scale

    def test_adjoint_reads_wall_couplings(self):
        # advect reads wall values of b, so the transpose must write them
        g = Grid(8)
        rng = np.random.default_rng(9)
        w = random_vector(g, rng)
        c = random_vector(g, rng)
        at = adjoint_advect(w, c)
        assert np.abs(at.u[0, :]).max() > 0.0
        assert np.abs(at.v[:, 0]).max() > 0.0


class TestSkew:
    def test_energy_neutrality_for_all_advecting_fields(self):
        # <skew(w, b), b> = 0 with no divergence or boundary condition on w
        rng = np.random.default_rng(21)
        for n in (8, 16):
            g = Grid(n)
            for _ in range(5):
                w = random_vector(g, rng)
                b = random_vector(g, rng)
                val = trilinear(w, b, b)
                scale = max(1.0, face_norm(w) * face_norm(b) ** 2)
                assert abs(val) <= 1e-13 * scale

    def test_antisymmetry_in_last_two_slots(self):
        g = Grid(16)
        rng = np.random.default_rng(23)
        w = random_vector(g, rng)
        b = random_vector(g, rng)
        c = random_vector(g, rng)
        lhs = trilinear(w, b, c)
        rhs = -trilinear(w, c, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_skew_is_half_difference(self):
        g = Grid(8)
        rng = np.random.default_rng(29)
        w = random_vector(g, rng)
        b = random_vector(g, rng)
        s = skew_advect(w, b)
        ref = (advect(w, b) - adjoint_advect(w, b)) * 0.5
        assert face_norm(s - ref) == 0.0
