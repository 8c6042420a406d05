"""Numeric kernels: Jacobi and batched LAPACK eigensolvers, definiteness tests, splitting, inversion, Perron root."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from psdparam import (
    ConvergenceError,
    PsdSplit,
    SingularMatrixError,
    SymMatrix,
    determinant,
    eig_stack,
    eig_sym,
    invert,
    is_pd,
    is_psd,
    min_eig,
    min_eigs,
    psd_split,
    spectral_radius_nonneg,
)

EX2_INDEFINITE = np.array([[-1.0, 1.0], [1.0, 1.0]])
EX2_SPLIT_SUM = np.array([[0.2929, 0.5], [0.5, 0.8929]])


def random_sym(rng, n):
    return SymMatrix(rng.uniform(-1.0, 1.0, (n, n)))


sym_matrices = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=n * n, max_size=n * n
    ).map(lambda vals: SymMatrix(np.array(vals).reshape(int(len(vals) ** 0.5), -1)))
)


class TestEigSym:
    def test_diagonal_permutation(self):
        vals, q = eig_sym(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(q), np.eye(3)[:, [1, 2, 0]])

    def test_two_by_two_characteristic(self):
        vals, _ = eig_sym(SymMatrix(EX2_INDEFINITE))
        assert vals == pytest.approx([-np.sqrt(2), np.sqrt(2)], abs=1e-12)

    def test_reconstruction_residual(self, rng):
        a = random_sym(rng, 5)
        vals, q = eig_sym(a)
        assert np.abs(q @ np.diag(vals) @ q.T - a.array).max() < 1e-10
        assert np.abs(q.T @ q - np.eye(5)).max() < 1e-10

    def test_eigenvalues_ascending(self, rng):
        for _ in range(20):
            vals, _ = eig_sym(random_sym(rng, 6))
            assert (np.diff(vals) >= 0).all()

    def test_trace_and_determinant_invariants(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_sym(rng, n)
            vals, _ = eig_sym(a)
            assert abs(vals.sum() - np.trace(a.array)) <= 1e-9 * (1.0 + a.norm_bound)
            det = determinant(a)
            if abs(det) > 1e-8:
                assert np.prod(vals) == pytest.approx(det, rel=1e-6)

    def test_one_by_one(self):
        vals, q = eig_sym(SymMatrix([[4.0]]))
        assert vals[0] == 4.0 and q[0, 0] == 1.0

    def test_sweep_cap_raises(self):
        with pytest.raises(ConvergenceError):
            eig_sym(SymMatrix([[0.0, 1.0], [1.0, 0.0]]), max_sweeps=0)


class TestBatchedLapack:
    """The batched LAPACK kernels against the Jacobi solver they stand beside."""

    def test_min_eigs_matches_jacobi(self, rng):
        for n in range(1, 13):
            mats = [random_sym(rng, n) for _ in range(4)]
            batched = min_eigs(np.stack([a.array for a in mats]))
            assert batched.shape == (4,)
            for a, value in zip(mats, batched):
                assert abs(value - min_eig(a)) <= 1e-10 * (1.0 + a.norm_bound)

    def test_eig_stack_matches_jacobi(self, rng):
        for n in range(1, 9):
            mats = [random_sym(rng, n) for _ in range(3)]
            vals, vecs = eig_stack(np.stack([a.array for a in mats]))
            for a, w, q in zip(mats, vals, vecs):
                scale = 1e-10 * (1.0 + a.norm_bound)
                assert np.abs(w - eig_sym(a)[0]).max() <= scale
                assert np.abs((q * w) @ q.T - a.array).max() <= scale

    def test_lapack_failure_is_convergence_error(self):
        stack = np.full((2, 3, 3), np.nan)
        with pytest.raises(ConvergenceError):
            min_eigs(stack)
        with pytest.raises(ConvergenceError):
            eig_stack(stack)


class TestDefiniteness:
    def test_min_eig_identity(self):
        assert min_eig(SymMatrix(np.eye(3))) == pytest.approx(1.0)

    def test_min_eig_split_sum_positive(self):
        assert min_eig(SymMatrix(EX2_SPLIT_SUM)) > 0

    def test_min_eig_swap(self):
        assert min_eig(SymMatrix([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)

    def test_zero_matrix(self):
        z = SymMatrix(np.zeros((2, 2)))
        assert is_psd(z) and not is_pd(z)

    def test_swap_matrix_neither(self):
        m = SymMatrix([[0.0, 1.0], [1.0, 0.0]])
        assert not is_psd(m) and not is_pd(m)

    def test_split_sum_pd(self):
        assert is_pd(SymMatrix(EX2_SPLIT_SUM))

    def test_tolerance_band_splits_the_predicates(self):
        # Matrix with an eigenvalue inside the default band: PSD up to
        # tolerance, but not provably PD.
        a = SymMatrix(np.diag([1.0, 5e-11]))
        assert is_psd(a) and not is_pd(a)
        # An explicit tolerance moves the band.
        assert is_pd(a, tol=1e-12)
        assert not is_psd(SymMatrix(np.diag([1.0, -5e-3])), tol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices)
    def test_pd_implies_psd(self, a):
        if is_pd(a):
            assert is_psd(a)

    def test_symmetrization_recorded(self):
        a = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        assert a.asymmetry == pytest.approx(2.0)
        assert np.array_equal(a.array, a.array.T)


class TestPsdSplit:
    def test_printed_split(self):
        split = psd_split(SymMatrix(EX2_INDEFINITE))
        assert np.abs(split.plus.array - [[0.2071, 0.5], [0.5, 1.2071]]).max() < 5e-4
        assert np.abs(split.minus.array - [[1.2071, -0.5], [-0.5, 0.2071]]).max() < 5e-4

    def test_psd_input_passes_through(self, rng):
        g = rng.uniform(-1, 1, (3, 3))
        a = SymMatrix(g @ g.T)
        split = psd_split(a)
        assert np.abs(split.plus.array - a.array).max() < 1e-10
        assert np.abs(split.minus.array).max() < 1e-10

    def test_random_indefinite_invariants(self, rng):
        for _ in range(50):
            a = random_sym(rng, 4)
            split = psd_split(a)
            scale = 1e-10 * (1.0 + a.max_abs)
            assert np.abs((split.plus.array - split.minus.array) - a.array).max() <= scale
            assert min_eig(split.plus) >= -scale
            assert min_eig(split.minus) >= -scale

    def test_type(self):
        assert isinstance(psd_split(SymMatrix(np.eye(2))), PsdSplit)


class TestInvert:
    def test_identity(self):
        assert np.array_equal(invert(SymMatrix(np.eye(3))), np.eye(3))

    def test_midpoint_preconditioner(self):
        a = SymMatrix([[1.0, 0.5], [0.5, 1.6]])
        c = invert(a)
        assert np.abs(c @ a.array - np.eye(2)).max() < 1e-12

    def test_singular_rank_one(self):
        with pytest.raises(SingularMatrixError):
            invert(SymMatrix(np.ones((2, 2))))

    def test_random_inverse_quality(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 7))
            a = random_sym(rng, n)
            try:
                c = invert(a)
            except SingularMatrixError:
                continue
            kappa = np.abs(np.linalg.eigvalsh(a.array)).max() / np.abs(np.linalg.eigvalsh(a.array)).min()
            assert np.abs(c @ a.array - np.eye(n)).max() <= 1e-8 * kappa

    def test_determinant_matches_reference(self, rng):
        for _ in range(30):
            a = random_sym(rng, int(rng.integers(1, 7)))
            assert determinant(a) == pytest.approx(float(np.linalg.det(a.array)), rel=1e-9, abs=1e-12)


class TestSpectralRadius:
    def test_swap_matrix(self):
        b = spectral_radius_nonneg([[0.0, 1.0], [1.0, 0.0]])
        assert b.upper == pytest.approx(1.0, abs=1e-9)
        assert b.converged

    def test_zero_matrix(self):
        b = spectral_radius_nonneg(np.zeros((3, 3)))
        assert b.upper == 0.0 and b.converged

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius_nonneg([[0.0, -1.0], [0.0, 0.0]])

    def test_nilpotent_upper_bound_still_sound(self):
        # Defective matrix: the bracket narrows slowly, so the cap trips,
        # but the flagged upper bound must stay a valid bound (true radius
        # is 0) and is still usable to conclude rho < 1.
        b = spectral_radius_nonneg([[0.0, 1.0], [0.0, 0.0]], max_iter=200)
        assert not b.converged
        assert 0.0 <= b.upper < 1.0
        assert b.iterations == 200

    def test_perron_frobenius_bounds(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 8))
            r = rng.uniform(0.0, 3.0, (n, n))
            b = spectral_radius_nonneg(r)
            assert b.upper >= r.diagonal().max() - 1e-9
            assert b.upper <= r.sum(axis=1).max() + 1e-9
            rho_ref = np.abs(np.linalg.eigvals(r)).max()
            assert b.upper >= rho_ref - 1e-8
            if b.converged:
                assert b.upper == pytest.approx(rho_ref, abs=1e-6)
