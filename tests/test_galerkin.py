"""Spectral basis, trilinear transport form, and coefficient-ODE tests."""
import math
import tokenize
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from enslab.errors import CheckFailure
from enslab.fieldio import read_vector
from enslab.grid import (
    Grid,
    VectorField,
    divergence,
    face_inner,
    face_norm,
    grad_inner,
    normal_trace,
    vector_from_stream,
    vector_laplacian,
)
from enslab.stokes_lift import leray_project
from enslab.stokes_modes import lowest_modes
from enslab import ens_jl, galerkin, grid as grid_module, linsolve
from enslab.scenarios import march
from oracles import (
    advect, curl_matrix, divergence_matrix, eigen_residual_loop, flatten_interior, flow,
    noslip_viscous_matrix, parity_block_basis, trilinear,
)


def vortex(grid, amplitude=1.0):
    x = grid.nodes()[:, None]
    y = grid.nodes()[None, :]
    psi = amplitude * np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2 / np.pi
    return vector_from_stream(grid, psi)


class TestBasisConstruction:
    def test_ground_eigenvalue_stable_under_refinement(self):
        lam16 = galerkin.build_basis(Grid(16), 1).lam[0]
        lam32 = galerkin.build_basis(Grid(32), 1).lam[0]
        assert lam16 > 0.0 and lam32 > 0.0
        assert abs(lam16 - lam32) / lam32 <= 0.05

    def test_gram_matrix_is_identity(self):
        basis = galerkin.build_basis(Grid(16), 16)
        k = basis.k
        gram = np.array([[face_inner(basis.modes[i], basis.modes[j])
                          for j in range(k)] for i in range(k)])
        assert np.abs(gram - np.eye(k)).max() <= 1e-10

    def test_modes_divergence_free_and_no_slip(self):
        basis = galerkin.build_basis(Grid(16), 16)
        for w in basis.modes:
            assert np.abs(divergence(w).values).max() <= 1e-9
            assert normal_trace(w).max_abs() <= 1e-9

    def test_eigen_residual_small(self):
        basis = galerkin.build_basis(Grid(16), 6)
        for lam, w in zip(basis.lam, basis.modes):
            aw = leray_project(-vector_laplacian(w))
            res = face_norm(aw - w * float(lam))
            assert res <= 1e-8 * (1.0 + float(lam))

    def test_eigenvalues_ascending_and_positive(self):
        basis = galerkin.build_basis(Grid(16), 16)
        assert basis.lam[0] > 0.0
        assert np.all(np.diff(basis.lam) >= -1e-12)

    def test_smaller_basis_is_prefix(self):
        b8 = galerkin.build_basis(Grid(16), 8)
        b16 = galerkin.build_basis(Grid(16), 16)
        assert np.abs(b8.lam - b16.lam[:8]).max() <= 1e-10

    def test_memoized_by_grid_and_count(self):
        a = galerkin.build_basis(Grid(16), 8)
        b = galerkin.build_basis(Grid(16), 8)
        assert a is b

    def test_mode_count_bounds(self):
        grid = Grid(16)
        dim = (grid.n - 1) * grid.n + grid.n * (grid.n - 1) - (grid.n * grid.n - 1)
        with pytest.raises(ValueError):
            galerkin.build_basis(grid, 0)
        with pytest.raises(ValueError):
            galerkin.build_basis(grid, dim + 1)

    def test_constructor_rejects_non_orthonormal_modes(self):
        basis = galerkin.build_basis(Grid(16), 4)
        modes = list(basis.modes)
        modes[2] = modes[2] + modes[1] * 1e-6
        with pytest.raises(CheckFailure, match="<w_1, w_2>|<w_2, w_1>"):
            galerkin.GalerkinBasis(basis.grid, basis.lam, tuple(modes))

    def test_constructor_rejects_wrong_eigenvalue(self):
        basis = galerkin.build_basis(Grid(16), 4)
        lam = basis.lam.copy()
        lam[3] *= 1.001
        with pytest.raises(CheckFailure, match="mode 3 eigen-residual"):
            galerkin.GalerkinBasis(basis.grid, lam, basis.modes)

    def test_first_of_two_wrong_eigenvalues_is_named(self):
        basis = galerkin.build_basis(Grid(16), 8)
        lam = basis.lam.copy()
        lam[[2, 5]] *= 1.001
        assert np.all(np.diff(lam) >= 0.0)
        with pytest.raises(CheckFailure, match="^mode 2 eigen-residual"):
            galerkin.GalerkinBasis(basis.grid, lam, basis.modes)

    def test_reflection_classes_of_the_parity_blocks(self):
        # (even, even) ground mode; each twin pair is (even, odd) then (odd, even)
        basis = galerkin.build_basis(Grid(16), 16)
        assert basis.parity[0] == 0
        for i in np.flatnonzero(np.diff(basis.lam) == 0.0):
            assert (basis.parity[i], basis.parity[i + 1]) == (2, 1)

    def test_constructor_rejects_mode_of_mixed_parity(self):
        # a rotated twin pair is still an orthonormal pair of eigenmodes
        basis = galerkin.build_basis(Grid(16), 6)
        i = int(np.flatnonzero(np.diff(basis.lam) == 0.0)[0])
        modes = list(basis.modes)
        a, b = modes[i], modes[i + 1]
        modes[i] = (a + b) * math.sqrt(0.5)
        modes[i + 1] = (a - b) * math.sqrt(0.5)
        with pytest.raises(CheckFailure, match=f"mode {i} is neither symmetric"):
            galerkin.GalerkinBasis(basis.grid, basis.lam, tuple(modes))

    def test_grid_too_large_for_dense_solve(self):
        with pytest.raises(ValueError, match="grid <= 64"):
            galerkin.build_basis(Grid(128), 4)


class TestBasisAgainstDenseOracle:
    # The oracle diagonalizes K on an orthonormal basis of null(D).  Each k
    # sits between two distinct eigenvalues, so the k-dimensional subspace is
    # unique (at N = 16 a degenerate pair is split at k = 2, 7, 9, 14, 18, 23).
    @pytest.mark.parametrize("n,k", [(8, 12), (8, 49), (16, 16)])
    def test_eigenpairs_match_null_space_oracle(self, n, k):
        grid = Grid(n)
        null = sla.null_space(divergence_matrix(grid).toarray())
        stiff = null.T @ (noslip_viscous_matrix(grid) @ null)
        lam, vecs = sla.eigh(stiff, subset_by_index=[0, k - 1])
        basis = galerkin.build_basis(grid, k)
        assert np.abs(basis.lam - lam).max() <= 1e-10 * lam.max()
        modes = np.stack([flatten_interior(w) for w in basis.modes], axis=1)
        angles = sla.subspace_angles(modes, null @ vecs)
        assert angles.max() <= 1e-9


class TestParityBlocksAgainstDensePencil:
    # The dense pencil (C^T K C, C^T C) that the parity blocks replace.  Every
    # degenerate eigenvalue up to N = 16 is an (even, odd)/(odd, even) twin
    # pair; all other neighbours differ by 1e-5 relative or more.
    @staticmethod
    def dense(n):
        grid = Grid(n)
        C = curl_matrix(grid)
        lam, psi = sla.eigh((C.T @ noslip_viscous_matrix(grid) @ C).toarray(),
                            (C.T @ C).toarray())
        return grid, lam, (C @ psi) / grid.h

    @staticmethod
    def fresh_build(monkeypatch, grid, k):
        monkeypatch.setattr(linsolve, "_cache", {})
        return galerkin.build_basis(grid, k)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_eigenvalues_and_subspaces(self, n):
        grid, lam, faces = self.dense(n)
        basis = galerkin.build_basis(grid, lam.size)
        assert np.all(np.abs(basis.lam - lam) <= 1e-12 * lam)
        # sines of the principal angles between the first k modes and the
        # oracle's first k are the singular values of this block
        modes = np.stack([flatten_interior(w) for w in basis.modes], axis=1)
        cross = grid.h * grid.h * (faces.T @ modes)
        splits = np.diff(lam) <= 1e-10 * lam[1:]
        for k in range(1, lam.size):
            if not splits[k - 1]:
                assert np.linalg.norm(cross[k:, :k], 2) <= 1e-9, k

    @pytest.mark.parametrize("n", [4, 7, 8, 13, 16])
    def test_two_builds_are_bitwise_equal(self, monkeypatch, n):
        grid = Grid(n)
        dim = (n - 1) ** 2
        a = self.fresh_build(monkeypatch, grid, dim)
        b = self.fresh_build(monkeypatch, grid, dim)
        assert a is not b
        assert np.array_equal(a.lam, b.lam) and np.array_equal(a.stacked, b.stacked)

    @pytest.mark.parametrize("n", [4, 7, 8, 13, 16])
    def test_mode_signs_do_not_follow_eigh(self, monkeypatch, n):
        # LAPACK may return either sign of an eigenvector; here every one flips
        grid = Grid(n)
        dim = (n - 1) ** 2
        a = self.fresh_build(monkeypatch, grid, dim)
        eigh = np.linalg.eigh

        def flipped(m):
            mu, y = eigh(m)
            return mu, -y

        monkeypatch.setattr(galerkin.np.linalg, "eigh", flipped)
        b = self.fresh_build(monkeypatch, grid, dim)
        assert np.array_equal(a.lam, b.lam) and np.array_equal(a.stacked, b.stacked)

    @pytest.mark.parametrize("n", range(4, 17))
    def test_odd_even_twin_is_the_swap_of_even_odd(self, n):
        basis = galerkin.build_basis(Grid(n), (n - 1) ** 2)
        twins = np.flatnonzero(np.diff(basis.lam) == 0.0)
        assert twins.size == ((n - 1) // 2) * (n // 2)
        for i in twins:
            first, second = basis.modes[i], basis.modes[i + 1]
            assert np.array_equal(second.u, -first.v.T)
            assert np.array_equal(second.v, -first.u.T)
            # the member kept first has a stream function even in x, odd in y
            scale = np.abs(first.v).max()
            assert np.abs(first.u[::-1, :] - first.u).max() <= 1e-12 * scale
            assert np.abs(first.v[::-1, :] + first.v).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [5, 8, 11, 16])
    def test_smaller_basis_is_a_bitwise_prefix(self, monkeypatch, n):
        grid = Grid(n)
        full = self.fresh_build(monkeypatch, grid, (n - 1) ** 2)
        for k in (1, 2, 3, 7, 9, n):
            part = self.fresh_build(monkeypatch, grid, k)
            assert np.array_equal(part.lam, full.lam[:k])
            assert np.array_equal(part.stacked, full.stacked[:k])

    def test_cap_grid_holds_no_dense_pencil(self, monkeypatch):
        # measured peak 39.8 MiB (numpy 2.4); one float64 array of (N - 1)^4
        # entries, the size of the dense pencil, would alone take 120 MiB
        n, bound = 64, 48 * 2 ** 20
        assert bound < 8 * (n - 1) ** 4
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            basis = self.fresh_build(monkeypatch, Grid(n), 32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert basis.k == 32
        assert peak <= bound


class TestSwapSplitAgainstParityBlocks:
    # oracles.parity_block_basis solves the (even, even) and (odd, odd) blocks
    # whole, with no x <-> y swap split, and checks each mode's residual with
    # its own field operations.  A round-off change of a matrix of order m
    # moves an eigenvector by up to ~ m eps lam_max / gap (Davis-Kahan),
    # where gap is the distance to the nearest other eigenvalue: the modes
    # are held to 1e-12, or to 1e-14 lam_max / gap where that neighbour lies
    # within 1e-2 lam_max (the worst seen over n = 4...24 is 1.0e-15).
    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(4, 24), data=st.data())
    def test_matches_the_unsplit_blocks(self, n, data):
        grid = Grid(n)
        dim = (n - 1) ** 2
        k = data.draw(st.integers(1, dim), label="k")
        basis = galerkin.GalerkinBasis(grid, *lowest_modes(grid, k))  # uncached
        spectrum, nodes = parity_block_basis(grid, dim)
        lam = spectrum[:k]
        assert np.abs(basis.lam - lam).max() <= 1e-12 * lam.max()
        oracle = galerkin.GalerkinBasis(grid, lam, [vector_from_stream(grid, p) for p in nodes[:k]])
        assert np.array_equal(basis.parity, oracle.parity)
        sign = np.sign(np.einsum("ij,ij->i", basis.stacked, oracle.stacked))
        moved = grid.h * np.linalg.norm(basis.stacked - sign[:, None] * oracle.stacked, axis=1)
        gap = np.array([np.abs(spectrum[spectrum != mu] - mu).min() for mu in lam])
        assert np.all(moved <= 1e-12 * np.maximum(1.0, 1e-2 * spectrum.max() / gap))
        # the stacked residuals against the loop, at the basis's own
        # eigenvalues (round-off) and at shifted ones (~1e-3 lam each)
        stacked = galerkin._eigen_residuals(grid, basis.stacked, basis.lam)
        loop = eigen_residual_loop(basis.modes, basis.lam)
        assert np.all(np.abs(stacked - loop) <= 1e-12 * (1.0 + basis.lam))
        shifted = basis.lam * (1.0 + 1e-3)
        stacked = galerkin._eigen_residuals(grid, basis.stacked, shifted)
        loop = eigen_residual_loop(basis.modes, shifted)
        assert np.all(np.abs(stacked - loop) <= 1e-12 * loop)

    @pytest.mark.parametrize("n", [4, 7, 8, 16])
    def test_same_parity_modes_are_swap_symmetric_or_antisymmetric(self, n):
        # the swap of x and y takes (u, v) to (-v^T, -u^T); a block of one
        # parity class holds m (m + 1) / 2 symmetric and m (m - 1) / 2
        # antisymmetric modes, m the size of its 1-D index set
        basis = galerkin.build_basis(Grid(n), (n - 1) ** 2)
        for cls, m in ((0, n // 2), (3, (n - 1) // 2)):
            kinds = []
            for j in np.flatnonzero(basis.parity == cls):
                w = basis.modes[j]
                scale = max(np.abs(w.u).max(), np.abs(w.v).max())
                sym, anti = np.abs(w.u + w.v.T).max(), np.abs(w.u - w.v.T).max()
                assert min(sym, anti) <= 1e-12 * scale, j
                kinds.append(sym < anti)
            assert (sum(kinds), len(kinds) - sum(kinds)) == (m * (m + 1) // 2, m * (m - 1) // 2)


class TestBasisCache:
    def test_round_trip_is_bitwise(self, tmp_path):
        basis = galerkin.build_basis(Grid(16), 8)
        galerkin.save_basis(basis, str(tmp_path))
        lam = np.loadtxt(tmp_path / "lambda.txt")
        assert np.array_equal(lam, basis.lam)
        for j, w in enumerate(basis.modes):
            read, _ = read_vector(str(tmp_path / f"mode_{j:03d}"))
            assert np.array_equal(read.u, w.u) and np.array_equal(read.v, w.v)

    def test_tampered_eigenvalues_name_the_first_wrong_mode(self):
        basis = galerkin.build_basis(Grid(16), 8)
        lam = basis.lam.copy()
        lam[[2, 5]] *= 1.001
        with pytest.raises(CheckFailure, match="^mode 2 eigen-residual"):
            galerkin.GalerkinBasis(basis.grid, lam, basis.modes)


class TestTrilinearForm:
    def test_energy_neutrality_for_solenoidal_transporter(self):
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        rng = np.random.default_rng(7)
        for trial in range(5):
            raw = VectorField(grid, rng.standard_normal(grid.shape_u),
                              rng.standard_normal(grid.shape_v))
            u = leray_project(raw)
            v = basis.modes[trial % basis.k]
            scale = face_norm(u) * math.sqrt(grad_inner(v, v)) * face_norm(v)
            assert abs(trilinear(u, v, v)) <= 1e-10 * scale

    def test_skew_antisymmetry_in_last_two_slots(self):
        basis = galerkin.build_basis(Grid(16), 8)
        u, v, w = basis.modes[1], basis.modes[4], basis.modes[6]
        fwd = trilinear(u, v, w)
        bwd = trilinear(u, w, v)
        scale = face_norm(u) * math.sqrt(grad_inner(v, v)) * face_norm(w)
        assert abs(fwd + bwd) <= 1e-10 * max(scale, 1.0)

    def test_agrees_with_quadrature_oracle(self):
        basis = galerkin.build_basis(Grid(16), 3)
        w1, w2, w3 = basis.modes
        direct = trilinear(w1, w2, w3)
        oracle = 0.5 * (face_inner(advect(w1, w2), w3)
                        - face_inner(advect(w1, w3), w2))
        assert abs(direct - oracle) <= 1e-8

    def test_bilinear_in_middle_slot(self):
        basis = galerkin.build_basis(Grid(16), 4)
        u, v1, v2, w = basis.modes
        combo = trilinear(u, v1 * 2.0 + v2 * (-3.0), w)
        split = 2.0 * trilinear(u, v1, w) - 3.0 * trilinear(u, v2, w)
        assert abs(combo - split) <= 1e-12 * max(1.0, abs(split))


class TestTensorContraction:
    def test_coupling_tensor_matches_per_triple_oracle(self):
        # k = 12 reaches all four reflection classes on these grids; the odd
        # grids put a centre line of each face set on the quarter's edge
        for n in (8, 9, 15, 16):
            basis = galerkin.build_basis(Grid(n), 12)
            assert set(basis.parity.tolist()) == {0, 1, 2, 3}
            w = basis.modes
            oracle = np.array([[[trilinear(w[r], w[s], w[j]) for j in range(12)]
                                for s in range(12)] for r in range(12)])
            tensor = galerkin.coupling_tensor(basis)
            assert np.abs(tensor - oracle).max() <= 1e-13 * np.abs(oracle).max(), n

    def test_workspaces_start_on_a_cache_line(self):
        # the class-pair loop of the tensor runs up to ~40% slower on
        # products stored, or operands read, off a 64-byte line
        for n in (1, 7, 100, 100_000):
            x = grid_module._line_aligned(n)
            assert x.shape == (n,) and x.flags.c_contiguous and x.ctypes.data % 64 == 0
        # so does the tensor that every step's product reads
        tensor = galerkin.coupling_tensor(galerkin.build_basis(Grid(9), 16))
        assert tensor.flags.c_contiguous and tensor.ctypes.data % 64 == 0

    def test_coupling_tensor_is_exactly_skew_in_last_two_slots(self):
        for n in (9, 16):
            tensor = galerkin.coupling_tensor(galerkin.build_basis(Grid(n), 16))
            assert not (tensor + tensor.transpose(0, 2, 1)).any(), n

    @pytest.mark.parametrize("n", [9, 16])
    def test_entries_the_class_rule_forbids_are_exactly_zero(self, n):
        basis = galerkin.build_basis(Grid(n), 16)
        p = basis.parity
        tensor = galerkin.coupling_tensor(basis)
        allowed = (p[:, None, None] ^ p[None, :, None] ^ p[None, None, :]) == 3
        assert not tensor[~allowed].any()
        assert np.abs(tensor[allowed]).max() > 0.0

class TestStateAndProjection:
    def test_project_reconstruct_round_trip(self):
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        state = galerkin.project_onto_basis(basis, vortex(grid))
        field = galerkin.reconstruct(basis, state)
        again = galerkin.project_onto_basis(basis, field)
        assert np.abs(again.coeffs - state.coeffs).max() <= 1e-12
        assert np.abs(divergence(field).values).max() <= 1e-9
        assert normal_trace(field).max_abs() <= 1e-9

    def test_reconstruct_rejects_mismatched_size(self):
        basis = galerkin.build_basis(Grid(16), 4)
        with pytest.raises(ValueError):
            galerkin.reconstruct(basis, galerkin.GalerkinState(np.ones(3)))

    def test_state_rejects_non_finite(self):
        with pytest.raises(CheckFailure):
            galerkin.GalerkinState(np.array([1.0, np.nan]))

    def test_blow_up_names_its_time(self):
        # at dt = 0.5 the coefficients reach ~1e14, then ~1e224, then overflow
        basis = galerkin.build_basis(Grid(16), 8)
        start = galerkin.project_onto_basis(basis, vortex(Grid(16)) * 1e6)
        with pytest.raises(CheckFailure, match=r"\(blow-up\) at t = 1\.5$"):
            galerkin.integrate_galerkin(basis, start, 1e-3, 0.5, 100)

    def test_state_rejects_empty(self):
        with pytest.raises(ValueError):
            galerkin.GalerkinState(np.zeros(0))


class TestIntegration:
    def test_single_mode_exponential_decay(self):
        basis = galerkin.build_basis(Grid(16), 1)
        nu = 0.01
        hist = galerkin.integrate_galerkin(
            basis, galerkin.GalerkinState(np.array([1.0])), nu, 1e-3, 1000)
        exact = math.exp(-nu * float(basis.lam[0]))
        assert abs(float(hist[-1].coeffs[0]) - exact) <= 1e-10

    def test_forced_single_mode_closed_form(self):
        basis = galerkin.build_basis(Grid(16), 1)
        nu, dt, horizon, phi = 0.02, 1e-3, 0.5, 0.7
        hist = galerkin.integrate_galerkin(
            basis, galerkin.GalerkinState(np.array([0.2])), nu, dt, round(horizon / dt),
            basis.modes[0] * phi)
        a = nu * float(basis.lam[0])
        exact = 0.2 * math.exp(-a * horizon) + (phi / a) * (1.0 - math.exp(-a * horizon))
        assert abs(float(hist[-1].coeffs[0]) - exact) <= 1e-12

    def test_absent_force_is_never_projected(self, monkeypatch):
        def absent(*args):
            raise AssertionError("an absent force was projected")
        basis = galerkin.build_basis(Grid(16), 4)
        monkeypatch.setattr(galerkin, "project_onto_basis", absent)
        hist = galerkin.integrate_galerkin(
            basis, galerkin.GalerkinState(np.full(4, 0.1)), 0.1, 1e-3, 5)
        assert len(hist) == 6
        galerkin.galerkin_energy_ledger(basis, hist, 0.1, 1e-3)

    def test_forced_run_projects_its_force_once(self, monkeypatch):
        basis = galerkin.build_basis(Grid(16), 4)
        real, calls = galerkin.project_onto_basis, []

        def counted(b, w):
            calls.append(w)
            return real(b, w)
        monkeypatch.setattr(galerkin, "project_onto_basis", counted)
        galerkin.integrate_galerkin(
            basis, galerkin.GalerkinState(np.full(4, 0.1)), 0.1, 1e-3, 5, basis.modes[0])
        assert calls == [basis.modes[0]]

    def test_unforced_energy_monotone(self):
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        start = galerkin.project_onto_basis(basis, vortex(grid))
        hist = galerkin.integrate_galerkin(basis, start, 0.01, 1e-3, 200)
        energy = [0.5 * float(s.coeffs @ s.coeffs) for s in hist]
        for before, after in zip(energy, energy[1:]):
            assert after <= before + 1e-14

    def test_blow_up_raises_check_failure(self):
        basis = galerkin.build_basis(Grid(16), 8)
        start = galerkin.GalerkinState(np.full(8, 1e200))
        with pytest.raises(CheckFailure):
            galerkin.integrate_galerkin(basis, start, 0.01, 1e-3, 10)

    def test_blow_up_names_its_step_and_start_time(self):
        # the prefix march gives an error raised inside step k
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        start = galerkin.project_onto_basis(basis, vortex(grid, 1e3))
        with pytest.raises(CheckFailure) as exc:
            galerkin.integrate_galerkin(basis, start, 1e-3, 0.01, 20)
        assert str(exc.value) == ("step 6, t = 0.05: coefficients grew non-finite "
                                  "(blow-up) at t = 0.06")

    def test_rejects_bad_parameters(self):
        basis = galerkin.build_basis(Grid(16), 2)
        state = galerkin.GalerkinState(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            galerkin.integrate_galerkin(basis, state, 0.0, 1e-3, 100)
        with pytest.raises(ValueError):
            galerkin.integrate_galerkin(basis, state, 0.01, 1e-3, 0)
        with pytest.raises(ValueError):
            galerkin.integrate_galerkin(
                basis, galerkin.GalerkinState(np.array([1.0])), 0.01, 1e-3, 100)

    def test_trajectory_carries_times(self):
        basis = galerkin.build_basis(Grid(16), 2)
        state = galerkin.GalerkinState(np.array([0.3, -0.2]), time=1.5)
        hist = galerkin.integrate_galerkin(basis, state, 0.01, 1e-2, 5)
        assert len(hist) == 6
        times = [s.time for s in hist]
        assert np.abs(np.array(times) - (1.5 + 1e-2 * np.arange(6))).max() <= 1e-12


class TestEnergyLedger:
    def test_imbalance_near_rounding_floor_at_fine_step(self):
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        start = galerkin.project_onto_basis(basis, vortex(grid))
        hist = galerkin.integrate_galerkin(basis, start, 0.01, 1e-3, 200)
        rec = galerkin.galerkin_energy_ledger(basis, hist, 0.01, 1e-3)
        assert rec["imbalance_rate_max"] <= 1e-10

    def test_fourth_order_step_scaling(self):
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        start = galerkin.project_onto_basis(basis, vortex(grid, 4.0))
        rates = {}
        for dt in (0.04, 0.02, 0.01):
            hist = galerkin.integrate_galerkin(basis, start, 0.01, dt, round(0.4 / dt))
            rec = galerkin.galerkin_energy_ledger(basis, hist, 0.01, dt)
            rates[dt] = rec["imbalance_rate_max"]
        assert 12.0 <= rates[0.04] / rates[0.02] <= 20.0
        assert 12.0 <= rates[0.02] / rates[0.01] <= 20.0

    def test_forced_run_still_balances(self):
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        forcing = basis.modes[0] * 0.5 + basis.modes[3] * 0.3
        start = galerkin.GalerkinState(0.1 * np.arange(1.0, 9.0) / 8.0)
        hist = galerkin.integrate_galerkin(basis, start, 0.02, 1e-3, 200, forcing)
        rec = galerkin.galerkin_energy_ledger(basis, hist, 0.02, 1e-3, forcing)
        assert rec["imbalance_rate_max"] <= 1e-10

    def test_non_finite_defect_names_its_time(self):
        # the energies overflow: a CheckFailure, with no numpy warning
        basis = galerkin.build_basis(Grid(16), 8)
        states = [galerkin.GalerkinState(np.full(8, 1e154), t) for t in (0.0, 0.1, 0.2)]
        with pytest.raises(CheckFailure, match=r"^non-finite energy ledger defect at t = 0\.2$"):
            galerkin.galerkin_energy_ledger(basis, states, 0.1, 0.1)

    def test_record_holds_the_metrics_its_readers_read(self):
        # `enslab run` reads the rate, the spectral demo the energies
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        start = galerkin.project_onto_basis(basis, vortex(grid))
        dt = 1e-3
        hist = galerkin.integrate_galerkin(basis, start, 0.01, dt, 20)
        rec = galerkin.galerkin_energy_ledger(basis, hist, 0.01, dt)
        assert set(rec) == {
            "imbalance_max", "imbalance_rate_max", "energy_initial", "energy_final"}
        assert rec["imbalance_rate_max"] == rec["imbalance_max"] / (2.0 * dt)
        eps = np.finfo(float).eps
        e0 = 0.5 * float(start.coeffs @ start.coeffs)
        assert rec["energy_initial"] == pytest.approx(e0, rel=4 * eps)
        assert rec["energy_final"] < rec["energy_initial"]

    def test_matches_per_state_loop(self):
        # the ledger sums every state at once; this is the loop it replaced,
        # agreeing to a few roundings of the energy (summation order differs)
        grid = Grid(16)
        basis = galerkin.build_basis(grid, 8)
        forcing = basis.modes[0] * 0.5 + basis.modes[3] * 0.3
        start = galerkin.project_onto_basis(basis, vortex(grid))
        nu, dt = 0.02, 1e-2
        hist = galerkin.integrate_galerkin(basis, start, nu, dt, 10, forcing)
        rec = galerkin.galerkin_energy_ledger(basis, hist, nu, dt, forcing)
        f = galerkin.project_onto_basis(basis, forcing).coeffs
        E, net = [], []
        for s in hist:
            g = s.coeffs
            E.append(0.5 * float(g @ g))
            net.append(nu * float(basis.lam @ (g * g)) - float(f @ g))
        worst = max(abs(E[i + 2] - E[i] + dt / 3.0 * (net[i] + 4.0 * net[i + 1] + net[i + 2]))
                    for i in range(len(hist) - 2))
        eps = np.finfo(float).eps
        assert abs(rec["imbalance_max"] - worst) <= 16 * eps * max(E)
        assert rec["energy_final"] == pytest.approx(E[-1], rel=4 * eps)

    def test_short_trajectory_rejected(self):
        basis = galerkin.build_basis(Grid(16), 2)
        state = galerkin.GalerkinState(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            galerkin.galerkin_energy_ledger(basis, [state, state], 0.01, 1e-3)


class TestQuadraticNeutrality:
    def test_tensor_contraction_is_energy_neutral(self):
        basis = galerkin.build_basis(Grid(16), 8)
        tensor = galerkin.coupling_tensor(basis)
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.standard_normal(8)
            val = abs(float(g @ np.einsum("rsj,r,s->j", tensor, g, g)))
            norm = math.sqrt(float(g @ g))
            scale = norm * norm * math.sqrt(float(basis.lam @ (g * g)))
            assert val <= 1e-9 * scale


class TestCrossValidation:
    def test_spectral_run_tracks_full_solver(self):
        grid = Grid(16)
        seed_field = vortex(grid)
        nu, dt, horizon = 0.01, 1e-3, 0.1
        gaps = {}
        for k in (8, 16):
            basis = galerkin.build_basis(grid, k)
            start = galerkin.project_onto_basis(basis, seed_field)
            shared = galerkin.reconstruct(basis, start)
            hist = galerkin.integrate_galerkin(basis, start, nu, dt, round(horizon / dt))
            spectral = galerkin.reconstruct(basis, hist[-1])
            full = list(march(partial(ens_jl.step_decomposed, flow(grid, nu, dt)),
                              ens_jl.jl_state(shared), round(horizon / dt)))[-1].u
            gaps[k] = face_norm(spectral - full) / face_norm(full)
        assert gaps[8] <= 0.10
        assert gaps[16] < gaps[8]

    def test_truncation_error_monotone_in_mode_count(self):
        grid = Grid(16)
        seed_field = vortex(grid)
        errors = []
        for k in (2, 4, 8, 16):
            basis = galerkin.build_basis(grid, k)
            state = galerkin.project_onto_basis(basis, seed_field)
            errors.append(face_norm(seed_field - galerkin.reconstruct(basis, state)))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse + 1e-12


def test_module_stays_below_the_parser_token_step():
    # CPython's parser grows its token array by doubling; at 4,540 tokens,
    # compiled with no bytecode cache, galerkin.py raised the peak RSS of
    # an import by 384 KiB.  tokenize also counts comments and blank lines,
    # which the parser skips, so the bound is conservative.
    with open(galerkin.__file__, "rb") as f:
        count = sum(1 for _ in tokenize.tokenize(f.readline))
    assert count < 4096
