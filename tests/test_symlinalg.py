"""Numeric kernels: LAPACK eigensolvers (scalar and batched), the Jacobi kernel, definiteness tests, splitting, inversion, Perron root."""

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
    min_eig,
    min_eigs,
    passes,
    psd_split,
    spectral_radius_nonneg,
)
from psdparam import symlinalg
from psdparam.symlinalg import PerronBracket, _jacobi_eigvals, check_tol, scaled_tol

EX2_INDEFINITE = np.array([[-1.0, 1.0], [1.0, 1.0]])
EX2_SPLIT_SUM = np.array([[0.2929, 0.5], [0.5, 0.8929]])


def random_sym(rng, n):
    return SymMatrix(rng.uniform(-1.0, 1.0, (n, n)))


sym_matrices = st.integers(min_value=2, max_value=6).flatmap(
    lambda n: st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=n * n, max_size=n * n
    ).map(lambda vals: SymMatrix(np.array(vals).reshape(int(len(vals) ** 0.5), -1)))
)


def two_sided_jacobi_eigvals(a: SymMatrix) -> np.ndarray:
    """Reference: the kernel's scaling and stopping rule with textbook two-sided rotations."""
    n = a.n
    e = int(np.frexp(a.max_abs)[1])
    w = np.ldexp(a.array, -e)
    stop = 1e-13 * float(np.sqrt((w * w).sum()))
    skip = stop / (2.0 * n * n)
    while float(np.sqrt(2.0 * (np.tril(w, -1) ** 2).sum())) > stop:
        for p in range(n - 1):
            for r in range(p + 1, n):
                if abs(w[p, r]) <= skip:
                    continue
                tau = (w[r, r] - w[p, p]) / (2.0 * w[p, r])
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cp, cr = w[:, p].copy(), w[:, r].copy()
                w[:, p], w[:, r] = c * cp - s * cr, s * cp + c * cr
                rp, rr = w[p, :].copy(), w[r, :].copy()
                w[p, :], w[r, :] = c * rp - s * rr, s * rp + c * rr
                w[p, r] = w[r, p] = 0.0
    return np.sort(np.ldexp(np.diagonal(w), e))


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
            _jacobi_eigvals(np.array([[[0.0, 1.0], [1.0, 0.0]]]), max_sweeps=0)

    @pytest.mark.parametrize("big", [1e155, 1e200, 1e307])
    def test_huge_entries_match_lapack(self, big):
        # Squaring these entries overflows; the Jacobi kernel must still rotate.
        m = np.array([[0.0, big], [big, 0.0]])
        ref = np.linalg.eigvalsh(m)
        vals, q = eig_sym(SymMatrix(m))
        assert vals == pytest.approx(ref, rel=1e-12)
        assert np.abs(q.T @ q - np.eye(2)).max() < 1e-12
        assert _jacobi_eigvals(m[None])[0] == pytest.approx(ref, rel=1e-12)
        assert min_eig(SymMatrix(m)) == pytest.approx(ref[0], rel=1e-12)

    def test_huge_random_matrices_match_lapack(self, rng):
        for exponent in (150, 200, 300):
            for n in (3, 5):
                a = rng.uniform(-1.0, 1.0, (n, n))
                a = (a + a.T) * 10.0 ** exponent
                ref = np.linalg.eigvalsh(a)
                for vals in (eig_sym(SymMatrix(a))[0], _jacobi_eigvals(a[None])[0]):
                    assert np.abs(vals - ref).max() <= 1e-12 * np.abs(ref).max()
                assert abs(min_eig(SymMatrix(a)) - ref[0]) <= 1e-12 * np.abs(ref).max()

    def test_tiny_entries_are_rotated(self, rng):
        # The stopping rule is relative, so a matrix whose entries all sit
        # below 1e-13 is still diagonalized, not returned as its diagonal.
        m = np.array([[1e-20, 1e-14], [1e-14, 1e-20]])
        assert _jacobi_eigvals(m[None])[0, 0] == pytest.approx(-1e-14 + 1e-20, rel=1e-12)
        assert min_eig(SymMatrix(m)) == pytest.approx(-1e-14 + 1e-20, rel=1e-12)
        a = rng.uniform(-1.0, 1.0, (5, 5))
        a = (a + a.T) * 1e-300
        for m in (m, a):
            ref = np.linalg.eigvalsh(m)
            assert np.abs(_jacobi_eigvals(m[None])[0] - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_one_sided_update_matches_two_sided_rotations(self, rng):
        # The kernel writes each rotation's new columns as rows too, which is exact only while the iterates
        # stay exactly symmetric, and rotates a whole stack at once, which is exact only while each matrix
        # keeps its own masks.  Each stack mixes a dense matrix (several sweeps), a near-diagonal one (fewer),
        # one that passes its convergence test before any sweep with every off-diagonal entry still above the
        # skip threshold, one whose equal-diagonal zero entry the skip threshold skips while the others
        # rotate, and the zero matrix, each at its own scale.
        scales = [1e-300, 1e-3, 1.0, 1e200, 1e-150]
        for n in range(2, 11):
            for k in range(len(scales)):
                a = rng.uniform(-1.0, 1.0, (n, n))
                if n % 2:
                    a = np.round(a * 4.0) / 4.0  # ties and exact zeros
                dense = a + a.T
                near = np.diag(rng.uniform(1.0, 2.0, n)) + 1e-4 * dense
                converged = np.eye(n) + 0.5e-13 / np.sqrt(n - 1) * (1.0 - np.eye(n))
                skipped = dense.copy()
                skipped[0, 1] = skipped[1, 0] = 0.0
                skipped[1, 1] = skipped[0, 0]
                kinds = [dense, near, converged, skipped, np.zeros((n, n))]
                stack = np.stack([m * scale for m, scale in zip(kinds, np.roll(scales, k))])
                for m, vals in zip(stack, _jacobi_eigvals(stack)):
                    assert np.array_equal(vals, two_sided_jacobi_eigvals(SymMatrix(m)))

    def test_complex_abs_is_numpy_hypot(self, rng):
        # The kernel takes hypot(1, tau) as abs(complex(1.0, tau)), C's hypot, for the value np.hypot gives.
        taus = rng.standard_normal(20000) * 10.0 ** rng.uniform(-20.0, 20.0, 20000)
        assert [abs(complex(1.0, t)) for t in taus.tolist()] == np.hypot(1.0, taus).tolist()

    def test_zero_matrix(self):
        z = SymMatrix(np.zeros((4, 4)))
        assert np.array_equal(_jacobi_eigvals(z.array[None])[0], np.zeros(4))
        assert min_eig(z) == 0.0


class TestBatchedLapack:
    """The LAPACK kernels against the Jacobi kernel behind ``hertz_min_eig``."""

    def test_min_eigs_matches_jacobi(self, rng):
        for n in range(1, 13):
            mats = [random_sym(rng, n) for _ in range(4)]
            batched = min_eigs(np.stack([a.array for a in mats]))
            assert batched.shape == (4,)
            for a, value in zip(mats, batched):
                assert abs(value - _jacobi_eigvals(a.array[None])[0, 0]) <= 1e-10 * (1.0 + a.norm_bound)

    def test_min_eig_is_eigvalsh_at_every_scale(self, rng):
        cases = [np.array([[0.0, big], [big, 0.0]]) for big in (1e155, 1e200, 1e307)]
        cases.append(np.array([[1e-20, 1e-14], [1e-14, 1e-20]]))
        for exponent in range(-300, 301, 50):
            for n in (1, 2, 3, 5, 8):
                a = rng.uniform(-1.0, 1.0, (n, n))
                cases.append((a + a.T) * 10.0**exponent)
        for m in cases:
            assert min_eig(SymMatrix(m)) == float(np.linalg.eigvalsh(m)[0])

    def test_min_eig_lapack_failure_is_convergence_error(self, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            min_eig(SymMatrix(np.eye(2)))

    def test_eig_stack_matches_jacobi(self, rng):
        for n in range(1, 9):
            mats = [random_sym(rng, n) for _ in range(3)]
            vals, vecs = eig_stack(np.stack([a.array for a in mats]))
            for a, w, q in zip(mats, vals, vecs):
                scale = 1e-10 * (1.0 + a.norm_bound)
                assert np.abs(w - _jacobi_eigvals(a.array[None])[0]).max() <= scale
                assert np.abs((q * w) @ q.T - a.array).max() <= scale

    def test_lapack_failure_is_convergence_error(self):
        stack = np.full((2, 3, 3), np.nan)
        with pytest.raises(ConvergenceError):
            min_eigs(stack)
        with pytest.raises(ConvergenceError):
            eig_stack(stack)


def psd_pd(a: SymMatrix, tol: float | None = None) -> tuple[bool, bool]:
    """Whether ``a`` passes as PSD and as PD, within ``scaled_tol(a.norm_bound)`` unless ``tol`` is given."""
    m = min_eig(a)
    t = scaled_tol(a.norm_bound) if tol is None else tol
    return passes(m, "psd", t), passes(m, "pd", t)


class TestDefiniteness:
    def test_min_eig_identity(self):
        assert min_eig(SymMatrix(np.eye(3))) == pytest.approx(1.0)

    def test_min_eig_split_sum_positive(self):
        assert min_eig(SymMatrix(EX2_SPLIT_SUM)) > 0

    def test_min_eig_swap(self):
        assert min_eig(SymMatrix([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)

    def test_zero_matrix(self):
        assert psd_pd(SymMatrix(np.zeros((2, 2)))) == (True, False)
        assert psd_pd(SymMatrix(np.zeros((2, 2))), tol=0.0) == (True, False)

    def test_swap_matrix_neither(self):
        assert psd_pd(SymMatrix([[0.0, 1.0], [1.0, 0.0]])) == (False, False)

    def test_split_sum_pd(self):
        assert psd_pd(SymMatrix(EX2_SPLIT_SUM)) == (True, True)

    def test_tolerance_band_splits_the_predicates(self):
        # Matrix with an eigenvalue inside the default band: PSD up to
        # tolerance, but not provably PD.
        a = SymMatrix(np.diag([1.0, 5e-11]))
        assert psd_pd(a) == (True, False)
        # An explicit tolerance moves the band.
        assert psd_pd(a, tol=1e-12) == (True, True)
        assert psd_pd(SymMatrix(np.diag([1.0, -5e-3])), tol=1e-6) == (False, False)
        # The band's edges: -tol still passes as PSD, +tol does not pass as PD.
        assert passes(-1e-6, "psd", 1e-6) and not passes(1e-6, "pd", 1e-6)

    @settings(max_examples=60, deadline=None)
    @given(sym_matrices, st.sampled_from([None, 0.0, 1e-3]))
    def test_pd_implies_psd(self, a, tol):
        psd, pd = psd_pd(a, tol)
        if pd:
            assert psd

    def test_arrays_match_scalars(self, rng):
        values = np.concatenate([rng.normal(scale=1e-6, size=50), [-1e-7, 1e-7, 0.0]])
        for kind in ("psd", "pd"):
            got = passes(values, kind, 1e-7)
            assert got.dtype == bool
            assert got.tolist() == [passes(float(v), kind, 1e-7) for v in values]
            # Failures are the complement, the band included.
            assert (~got).tolist() == (values <= 1e-7 if kind == "pd" else values < -1e-7).tolist()

    def test_nan_never_passes(self):
        for kind in ("psd", "pd"):
            assert not passes(float("nan"), kind, 1.0)
            assert not passes(np.array([np.nan]), kind, 1.0).any()

    def test_default_tolerance_overflow_raises(self):
        # n * max|entry| overflows: the default must not become inf, which
        # would pass every matrix as PSD.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            scaled_tol(SymMatrix(np.diag([1e308, -1e308])).norm_bound)
        assert scaled_tol(2.0) == 1e-10 * 3.0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            check_tol(float("nan"))

    def test_symmetrization_recorded(self):
        a = SymMatrix([[1.0, 2.0], [0.0, 1.0]])
        assert a.asymmetry == pytest.approx(2.0)
        assert np.array_equal(a.array, a.array.T)

    def test_symmetrization_cannot_overflow(self):
        a = SymMatrix([[1e308, 0.0], [0.0, 1e308]])
        assert np.array_equal(a.array, [[1e308, 0.0], [0.0, 1e308]])
        b = SymMatrix([[1e308, 1.7e308], [1.5e308, -1e308]])
        assert b.array[0, 1] == b.array[1, 0] == pytest.approx(1.6e308)
        assert b.asymmetry == pytest.approx(2e307)

    def test_symmetric_input_kept_bit_for_bit(self, rng):
        tiny = 5e-324  # the smallest subnormal; halving it gives 0
        a = SymMatrix([[tiny, tiny], [tiny, 0.0]])
        assert a.array[0, 1] == a.array[1, 0] == tiny and a.asymmetry == 0.0
        m = rng.uniform(-1.0, 1.0, (4, 4))
        m = m + m.T
        assert np.array_equal(SymMatrix(m).array, m)


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


def ones_start_bracket(r) -> PerronBracket:
    """Reference: the Collatz-Wielandt bracket at the ones vector, max(max diagonal, min row sum) <= rho <= max row sum.

    No Perron vector tightened it, so ``iterations`` is 0.
    """
    sums = r.sum(axis=1)
    lower, upper = max(float(r.diagonal().max()), float(sums.min())), float(sums.max())
    return PerronBracket(upper, min(lower, upper), upper - lower < symlinalg.PERRON_TOL, 0)


# A nearly reducible Beeck matrix G from the consistency sweep at --count 100: a power iteration from
# LAPACK's Perron vector, capped at 10,000 steps, ends with its upper end 6.8% above rho.
NEAR_REDUCIBLE_G = np.array(
    [
        [float.fromhex("0x1.e022e96665948p-50"), float.fromhex("0x1.0cb71a80f946fp-30")],
        [float.fromhex("0x1.4d89c8e73c3d9p-5"), float.fromhex("0x1.e34f4771fa274p-29")],
    ]
)


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
        # Defective and reducible: the floored Perron vectors leave the
        # bracket unconverged, but the flagged upper bound must stay a valid
        # bound (true radius is 0) and is still usable to conclude rho < 1.
        b = spectral_radius_nonneg([[0.0, 1.0], [0.0, 0.0]])
        assert not b.converged
        assert 0.0 <= b.upper < 1.0
        assert b.iterations == 2

    def test_bracket_contains_the_spectral_radius(self, rng):
        # Irreducible, sparse (often reducible), block-triangular (reducible), zero and 1x1 matrices.
        cases = [np.zeros((3, 3)), np.array([[0.0]]), np.array([[2.5]]), np.array([[0.0, 1.0], [0.0, 0.0]])]
        for i in range(120):
            n = int(rng.integers(1, 8))
            r = rng.uniform(0.0, 3.0, (n, n))
            if i % 3 == 1:
                r[rng.random((n, n)) < 0.6] = 0.0
            elif i % 3 == 2:
                r[: n // 2, n // 2 :] = 0.0
            cases.append(r)
        for r in cases:
            b = spectral_radius_nonneg(r)
            rho = float(np.abs(np.linalg.eigvals(r)).max())
            slack = 1e-9 * (1.0 + rho)
            assert b.lower - slack <= rho <= b.upper + slack

    def test_eig_failure_falls_back_to_the_ones_start(self, rng, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("eig failed")

        matrices = [rng.uniform(0.0, 3.0, (n, n)) for n in (1, 2, 4, 7)] + [np.array([[0.0, 1.0], [1.0, 0.0]])]
        monkeypatch.setattr(np.linalg, "eig", fail)
        for r in matrices:
            assert spectral_radius_nonneg(r) == ones_start_bracket(r)

    def test_non_finite_eig_falls_back_to_the_ones_start(self, rng, monkeypatch):
        def nan_eig(a):
            n = a.shape[0]
            return np.full(n, np.nan), np.full((n, n), np.nan)

        r = rng.uniform(0.0, 3.0, (4, 4))
        monkeypatch.setattr(np.linalg, "eig", nan_eig)
        assert spectral_radius_nonneg(r) == ones_start_bracket(r)

    def test_near_reducible_sweep_matrix_is_tight(self):
        b = spectral_radius_nonneg(NEAR_REDUCIBLE_G)
        rho = float(np.abs(np.linalg.eigvals(NEAR_REDUCIBLE_G)).max())
        slack = 1e-9 * (1.0 + rho)
        assert rho - slack <= b.lower <= b.upper <= rho + slack
        assert b.converged and b.iterations == 1

    def test_positive_matrix_converges_in_a_few_steps(self, rng):
        # The ones start took about 40 steps on these.
        for n in (2, 4, 6, 10):
            r = rng.uniform(0.1, 1.0, (n, n))
            b = spectral_radius_nonneg(r)
            assert b.converged and b.iterations <= 3
            assert b.upper == pytest.approx(float(np.abs(np.linalg.eigvals(r)).max()), abs=1e-9)

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
