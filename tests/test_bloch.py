import numpy as np
import pytest

from diracsoliton import FourierCutoff, ParityClass, PeriodicPotential
from diracsoliton.bloch import assemble_fb_matrix, band_sweep, fourier_eval, solve_bands_at_k


class TestPeriodicPotential:
    def test_even_index_rejects_odd_entries(self):
        with pytest.raises(ValueError, match="even-index"):
            PeriodicPotential({1: 1.0}, ParityClass.EVEN_INDEX)

    def test_odd_index_rejects_even_entries(self):
        with pytest.raises(ValueError, match="odd-index"):
            PeriodicPotential({2: 1.0}, ParityClass.ODD_INDEX)

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            PeriodicPotential({0: 1.0}, ParityClass.EVEN_INDEX)

    def test_nonfinite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PeriodicPotential({2: np.inf}, ParityClass.EVEN_INDEX)

    def test_half_period_identities(self):
        x = np.linspace(0.0, 1.0, 37)
        even = PeriodicPotential({2: 20.0, 4: -3.0}, ParityClass.EVEN_INDEX)
        odd = PeriodicPotential({1: 1.0, 3: 0.5}, ParityClass.ODD_INDEX)
        assert np.allclose(even(x + 0.5), even(x), atol=1e-12)
        assert np.allclose(odd(x + 0.5), -odd(x), atol=1e-12)


class TestAssembly:
    def test_free_matrix_is_diagonal_of_shifted_squares(self):
        pot = PeriodicPotential({}, ParityClass.EVEN_INDEX)
        A = assemble_fb_matrix(pot, np.pi, FourierCutoff(1))
        expect = np.diag([np.pi**2, np.pi**2, 9.0 * np.pi**2])
        assert np.allclose(A, expect, atol=1e-12)

    def test_cos4pix_couples_at_offset_two(self):
        pot = PeriodicPotential({2: 20.0}, ParityClass.EVEN_INDEX)
        A = assemble_fb_matrix(pot, 0.0, FourierCutoff(4))
        off = A - np.diag(np.diag(A))
        expect = np.zeros_like(A)
        idx = np.arange(A.shape[0] - 2)
        expect[idx, idx + 2] = 10.0
        expect[idx + 2, idx] = 10.0
        assert np.allclose(off, expect, atol=1e-14)

    def test_cos2pix_couples_adjacent(self):
        pot = PeriodicPotential({1: 1.0}, ParityClass.ODD_INDEX)
        A = assemble_fb_matrix(pot, np.pi, FourierCutoff(3))
        assert A[0, 1] == pytest.approx(0.5, abs=1e-15)
        assert A[1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_matrix_exactly_symmetric(self):
        pot = PeriodicPotential({2: 20.0, 4: 1.5}, ParityClass.EVEN_INDEX)
        A = assemble_fb_matrix(pot, 1.3, FourierCutoff(12))
        assert np.array_equal(A, A.T)

    def test_cutoff_too_small_rejected(self):
        pot = PeriodicPotential({6: 1.0}, ParityClass.EVEN_INDEX)
        with pytest.raises(ValueError, match="cutoff"):
            assemble_fb_matrix(pot, 0.0, FourierCutoff(5))


class TestSolve:
    def test_free_double_degeneracy_at_pi(self, pot_free):
        sol = solve_bands_at_k(pot_free, np.pi, FourierCutoff(8))
        ev = sol.eigenvalues
        assert ev[0] == pytest.approx(np.pi**2, abs=1e-10)
        assert ev[1] == pytest.approx(np.pi**2, abs=1e-10)
        assert ev[2] == pytest.approx(9.0 * np.pi**2, rel=1e-12)
        assert ev[3] == pytest.approx(9.0 * np.pi**2, rel=1e-12)

    def test_free_k_zero_spectrum(self, pot_free):
        sol = solve_bands_at_k(pot_free, 0.0, FourierCutoff(8))
        ev = sol.eigenvalues
        assert ev[0] == pytest.approx(0.0, abs=1e-12)
        assert ev[1] == pytest.approx(4.0 * np.pi**2, rel=1e-12)
        assert ev[2] == pytest.approx(4.0 * np.pi**2, rel=1e-12)

    def test_default_potential_keeps_lowest_pair_degenerate(self, pot_v, cut64):
        ev = solve_bands_at_k(pot_v, np.pi, cut64).eigenvalues
        assert abs(ev[1] - ev[0]) <= 1e-8 * (1.0 + abs(ev[0]))

    def test_eigenvectors_orthonormal(self, pot_v, cut64):
        sol = solve_bands_at_k(pot_v, 2.0, cut64)
        G = sol.eigenvectors.T @ sol.eigenvectors
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10

    def test_cutoff_convergence(self, pot_v):
        for k in (0.0, 1.0, np.pi):
            e1 = solve_bands_at_k(pot_v, k, FourierCutoff(64)).eigenvalues[:8]
            e2 = solve_bands_at_k(pot_v, k, FourierCutoff(128)).eigenvalues[:8]
            assert np.max(np.abs(e1 - e2)) < 1e-10


class TestSweep:
    def test_free_bands_are_sorted_shifted_parabolas(self, pot_free):
        k_grid = np.linspace(0.0, 2.0 * np.pi, 33)
        cut = FourierCutoff(8)
        sweep = band_sweep(pot_free, k_grid, cut)
        m = cut.indices()
        for sol in sweep.solutions:
            expect = np.sort((2.0 * np.pi * m + sol.k) ** 2)
            assert np.allclose(sol.eigenvalues, expect, atol=1e-9)

    def test_large_cutoff_sweep_passes_residual_check(self, pot_v):
        """eigh residuals scale with |A| ~ (2 pi M)^2, not with |lambda|."""
        k_grid = np.linspace(0.0, 2.0 * np.pi, 129)
        sweep = band_sweep(pot_v, k_grid, FourierCutoff(96))
        assert np.all(np.diff(sweep.band(0)[:65]) >= 0.0)

    def test_band_reflection_symmetry(self, pot_v, cut64):
        k_grid = np.linspace(0.1, 2.0 * np.pi - 0.1, 21)
        sweep = band_sweep(pot_v, k_grid, cut64)
        refl = band_sweep(pot_v, (2.0 * np.pi - k_grid)[::-1], cut64)
        for n in range(8):
            assert np.max(np.abs(sweep.band(n) - refl.band(n)[::-1])) <= 1e-9

    def test_band_growth_brackets(self, pot_v, cut64):
        """High bands sit between free bands shifted by the sup norm."""
        shift = sum(abs(amp) for amp in pot_v.coeffs.values())
        cut = FourierCutoff(8)
        for k in (0.5, np.pi, 5.0):
            ev = solve_bands_at_k(pot_v, k, cut64).eigenvalues
            free = np.sort((2.0 * np.pi * cut.indices() + k) ** 2)
            for n in range(3, 10):
                assert free[n] - shift <= ev[n] <= free[n] + shift

    def test_k_grid_outside_zone_rejected(self, pot_free):
        with pytest.raises(ValueError, match="k_grid"):
            band_sweep(pot_free, [-0.5, 1.0], FourierCutoff(4))


class TestBlochWave:
    """Bloch waves Phi_n(x, k) = e^{ikx} sum_m p_{n,m} e^{2 pi i m x}."""

    def test_single_mode_is_plane_wave(self, pot_free):
        sol = solve_bands_at_k(pot_free, np.pi, FourierCutoff(4))
        x = np.linspace(0.0, 1.0, 51)
        # lowest two coefficient vectors span modes m = 0 and m = -1
        vals = fourier_eval(sol.eigenvectors[:, 0], sol.k, x)
        target0 = np.exp(1j * np.pi * x)
        target1 = np.exp(-1j * np.pi * x)
        err0 = min(
            np.max(np.abs(vals - s * target0)) for s in (1, -1, 1j, -1j)
        )
        err1 = min(
            np.max(np.abs(vals - s * target1)) for s in (1, -1, 1j, -1j)
        )
        assert min(err0, err1) < 1e-10

    def test_pseudo_periodicity(self, pot_v, cut64):
        sol = solve_bands_at_k(pot_v, 1.7, cut64)
        x = np.linspace(0.0, 1.0, 17)
        a = fourier_eval(sol.eigenvectors[:, 2], sol.k, x + 1.0)
        b = np.exp(1j * sol.k) * fourier_eval(sol.eigenvectors[:, 2], sol.k, x)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_cell_normalization(self, pot_v, cut64):
        sol = solve_bands_at_k(pot_v, 0.9, cut64)
        x = np.arange(2048) / 2048.0
        vals = fourier_eval(sol.eigenvectors[:, 1], sol.k, x)
        assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=1e-10)


def _broad_coefficients(M: int = 98, seed: int = 7) -> np.ndarray:
    """197 complex modes with slow decay, so high frequencies carry weight."""
    rng = np.random.default_rng(seed)
    m = np.arange(-M, M + 1)
    c = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    return c * np.exp(-np.abs(m) / 40.0)


def _mp_reference(c, k, x) -> np.ndarray:
    """e^{ikx} sum_m c_m e^{2 pi i m x} in 40-digit arithmetic at the given floats."""
    import mpmath

    M = (len(c) - 1) // 2
    out = []
    with mpmath.workdps(40):
        cs = [mpmath.mpc(complex(v)) for v in c]
        for xi in x:
            X = mpmath.mpf(float(xi))
            z = mpmath.expj(2 * mpmath.pi * X)
            term = mpmath.expj(mpmath.mpf(float(k)) * X) * z ** (-M)
            total = mpmath.mpc(0)
            for cm in cs:
                total += cm * term
                term *= z
            out.append(complex(total))
    return np.array(out)


def _sample(x: np.ndarray, n: int = 150, seed: int = 3) -> np.ndarray:
    """Indices of n points of x, always including both ends."""
    rng = np.random.default_rng(seed)
    return np.unique(np.concatenate([[0, len(x) - 1], rng.choice(len(x), n)]))


class TestFourierEval:
    """Cell-offset synthesis against a high-precision direct sum, |x| <= 1400."""

    K = np.pi

    def _check(self, x, idx):
        c = _broad_coefficients()
        vals = fourier_eval(c, self.K, x)[idx]
        ref = _mp_reference(c, self.K, x[idx])
        assert np.max(np.abs(vals - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_staggered_dyadic_grid(self):
        half = (np.arange(1400 * 64) + 0.5) / 64.0
        x = np.concatenate([-half[::-1], half])
        self._check(x, _sample(x))

    def test_non_dyadic_grid(self):
        x = (np.arange(-140000, 140000) + 0.5) * 0.01
        self._check(x, _sample(x))

    def test_random_points(self):
        x = np.random.default_rng(11).uniform(-1400.0, 1400.0, 200)
        self._check(x, np.arange(len(x)))

    @pytest.mark.parametrize("k", [np.pi, 0.7, 0.0])
    def test_quasi_periodic(self, k):
        c = _broad_coefficients()
        # dyadic points, so x + 1 is exact
        x = np.random.default_rng(5).integers(-1400 * 1024, 1400 * 1024, 500) / 1024.0
        a = fourier_eval(c, k, x + 1.0)
        b = np.exp(1j * k) * fourier_eval(c, k, x)
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_stacked_rows_equal_single_calls(self):
        stack = np.stack([_broad_coefficients(seed=s) for s in range(4)])
        x = np.concatenate([(np.arange(-640, 640) + 0.5) / 64.0, [1399.3, -0.2]])
        vals = fourier_eval(stack, np.pi, x)
        assert vals.shape == (4, len(x))
        for row, c in zip(vals, stack):
            single = fourier_eval(c, np.pi, x)
            assert np.max(np.abs(row - single)) <= 1e-14 * np.max(np.abs(single))
