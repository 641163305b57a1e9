import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracsoliton import FourierCutoff, ParityClass, PeriodicPotential
from diracsoliton.bloch import (
    assemble_fb_matrix,
    band_sweep,
    fourier_eval,
    parity_block_eigh,
)


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
        sol = band_sweep(pot_free, [np.pi], FourierCutoff(8))
        ev = sol.eigenvalues[0]
        assert ev[0] == pytest.approx(np.pi**2, abs=1e-10)
        assert ev[1] == pytest.approx(np.pi**2, abs=1e-10)
        assert ev[2] == pytest.approx(9.0 * np.pi**2, rel=1e-12)
        assert ev[3] == pytest.approx(9.0 * np.pi**2, rel=1e-12)

    def test_free_k_zero_spectrum(self, pot_free):
        sol = band_sweep(pot_free, [0.0], FourierCutoff(8))
        ev = sol.eigenvalues[0]
        assert ev[0] == pytest.approx(0.0, abs=1e-12)
        assert ev[1] == pytest.approx(4.0 * np.pi**2, rel=1e-12)
        assert ev[2] == pytest.approx(4.0 * np.pi**2, rel=1e-12)

    def test_default_potential_keeps_lowest_pair_degenerate(self, pot_v, cut64):
        ev = band_sweep(pot_v, [np.pi], cut64).eigenvalues[0]
        assert abs(ev[1] - ev[0]) <= 1e-8 * (1.0 + abs(ev[0]))

    def test_eigenvectors_orthonormal(self, pot_v, cut64):
        vecs = band_sweep(pot_v, [2.0], cut64).eigenvectors[0]
        G = vecs.T @ vecs
        assert np.max(np.abs(G - np.eye(G.shape[0]))) < 1e-10

    def test_cutoff_convergence(self, pot_v):
        for k in (0.0, 1.0, np.pi):
            e1 = band_sweep(pot_v, [k], FourierCutoff(64)).eigenvalues[0][:8]
            e2 = band_sweep(pot_v, [k], FourierCutoff(128)).eigenvalues[0][:8]
            assert np.max(np.abs(e1 - e2)) < 1e-10


class TestSweep:
    def test_free_bands_are_sorted_shifted_parabolas(self, pot_free):
        k_grid = np.linspace(0.0, 2.0 * np.pi, 33)
        cut = FourierCutoff(8)
        sweep = band_sweep(pot_free, k_grid, cut)
        m = cut.indices()
        for k, evals in zip(sweep.k_grid, sweep.eigenvalues):
            expect = np.sort((2.0 * np.pi * m + k) ** 2)
            assert np.allclose(evals, expect, atol=1e-9)

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
            ev = band_sweep(pot_v, [k], cut64).eigenvalues[0]
            free = np.sort((2.0 * np.pi * cut.indices() + k) ** 2)
            for n in range(3, 10):
                assert free[n] - shift <= ev[n] <= free[n] + shift

    def test_k_grid_outside_zone_rejected(self, pot_free):
        with pytest.raises(ValueError, match="k_grid"):
            band_sweep(pot_free, [-0.5, 1.0], FourierCutoff(4))

    def test_odd_index_potential_rejected(self, pot_w):
        with pytest.raises(ValueError, match="even-index potential"):
            band_sweep(pot_w, [1.0], FourierCutoff(8))

    @pytest.mark.parametrize("M", [16, 17])
    def test_merges_the_parity_blocks(self, pot_v, M):
        """Ascending eigenvalues, each eigenvector a full (2M + 1)-vector
        on the modes of one index parity, as the blocks give them."""
        k_grid = np.linspace(0.0, 2.0 * np.pi, 9)
        cut = FourierCutoff(M)
        sweep = band_sweep(pot_v, k_grid, cut)
        _, blocks = parity_block_eigh(pot_v, k_grid, cut)
        assert sweep.eigenvectors.shape == (9, 2 * M + 1, 2 * M + 1)
        assert np.all(np.diff(sweep.eigenvalues, axis=1) >= 0.0)
        for i in range(len(k_grid)):
            on_even = np.abs(sweep.eigenvectors[i, blocks[0][0]]).sum(axis=0) > 0.0
            on_odd = np.abs(sweep.eigenvectors[i, blocks[1][0]]).sum(axis=0) > 0.0
            assert np.all(on_even != on_odd)
            for even, (pos, evals, evecs) in zip((True, False), blocks):
                cols = np.flatnonzero(on_even == even)
                assert sweep.eigenvalues[i, cols].tobytes() == evals[i].tobytes()
                assert sweep.eigenvectors[i][np.ix_(pos, cols)].tobytes() == evecs[i].tobytes()

    def test_residual_failure_names_first_bad_k(self, pot_v, monkeypatch):
        k_grid = np.linspace(0.0, 2.0 * np.pi, 9)
        eigh = np.linalg.eigh

        def spoiled(a):
            evals, evecs = eigh(a)
            evecs[[3, 6], 0, 2] += 1e-6  # the third eigenvector at k_grid[3] and [6]
            return evals, evecs

        monkeypatch.setattr(np.linalg, "eigh", spoiled)
        with pytest.raises(RuntimeError, match=r"^eigen-residual .* at k=(\S+); cond\(A\)=") as err:
            band_sweep(pot_v, k_grid, FourierCutoff(8))
        assert f"at k={k_grid[3]};" in str(err.value)

    def test_solver_failure_names_first_bad_k(self, pot_v, monkeypatch):
        """The stacked solve fails as a whole; the first k that fails alone is named."""
        k_grid = np.linspace(0.0, 2.0 * np.pi, 9)
        bad = {2, 5}
        eigh = np.linalg.eigh

        def failing(a):
            # H(k) has (2 pi m + k)^2 on its diagonal, so a[0, 0] identifies k
            if a.ndim == 3 or any(a[0, 0] == (-16.0 * np.pi + k_grid[i]) ** 2 for i in bad):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(RuntimeError) as err:
            band_sweep(pot_v, k_grid, FourierCutoff(8))
        assert str(err.value).startswith(
            f"eigensolver failed at k={k_grid[2]}: Eigenvalues did not converge; cond(A)="
        )


class TestParityBlockEigh:
    """bloch.parity_block_eigh, the one eigen-solve of V's Bloch matrices."""

    @pytest.mark.parametrize("M", [64, 63])
    def test_one_solve_per_block_equals_per_k_solves(self, pot_v, M, monkeypatch):
        """One stacked eigh per parity block, of M + 1 and M modes, bit for
        bit the eigenpairs of each k's block alone; band_sweep makes no
        other."""
        k_grid = np.linspace(0.0, 2.0 * np.pi, 17)
        cut = FourierCutoff(M)
        calls, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        A, blocks = parity_block_eigh(pot_v, k_grid, cut)
        even = (M + 1, M + 1) if M % 2 == 0 else (M, M)
        odd = (M, M) if M % 2 == 0 else (M + 1, M + 1)
        assert calls == [(17, *even), (17, *odd)]
        band_sweep(pot_v, k_grid, cut)
        assert calls[2:] == calls[:2]
        monkeypatch.undo()
        m = cut.indices()
        for (pos, evals, evecs), parity in zip(blocks, (0, 1)):
            assert np.array_equal(pos, np.flatnonzero(m % 2 == parity))
            for i, k in enumerate(k_grid):
                block = assemble_fb_matrix(pot_v, k, cut)[np.ix_(pos, pos)]
                one_evals, one_evecs = np.linalg.eigh(block)
                assert evals[i].tobytes() == one_evals.tobytes()
                assert evecs[i].tobytes() == one_evecs.tobytes()
        assert np.array_equal(A, np.stack([assemble_fb_matrix(pot_v, k, cut) for k in k_grid]))

    def test_default_cross_blocks_exactly_zero(self, pot_v, cut64):
        A, ((even, _, _), (odd, _, _)) = parity_block_eigh(pot_v, [np.pi, 1.0], cut64)
        assert np.max(np.abs(A[:, even][:, :, odd])) == 0.0
        assert len(even) + len(odd) == cut64.size

    def test_free_blocks_diagonal(self, pot_free):
        """With V = 0 each block is diagonal: its eigenvectors are signed unit vectors."""
        cut = FourierCutoff(6)
        A, blocks = parity_block_eigh(pot_free, [np.pi], cut)
        for pos, evals, evecs in blocks:
            assert np.allclose(evals[0], np.sort(np.diag(A[0])[pos]), rtol=1e-14, atol=0.0)
            assert np.allclose(np.max(np.abs(evecs[0]), axis=0), 1.0, rtol=0.0, atol=1e-14)

    @given(
        amps=st.lists(st.floats(-60.0, 60.0), min_size=3, max_size=3),
        extra=st.integers(0, 6),
        k=st.floats(0.0, 2.0 * np.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_merged_eigenvalues_match_the_full_matrix(self, amps, extra, k):
        """For a random even-index V, the blocks' eigenvalues merged are the
        full matrix's, within 1e-12 (1 + |A|)."""
        pot = PeriodicPotential(dict(zip((2, 4, 6), amps)), ParityClass.EVEN_INDEX)
        cut = FourierCutoff(pot.max_index + 2 + extra)
        A, blocks = parity_block_eigh(pot, [k], cut)
        merged = np.sort(np.concatenate([evals[0] for _, evals, _ in blocks]))
        ref = np.linalg.eigvalsh(A[0])
        assert np.max(np.abs(merged - ref)) <= 1e-12 * (1.0 + np.linalg.norm(A[0], 2))


class TestBlochWave:
    """Bloch waves Phi_n(x, k) = e^{ikx} sum_m p_{n,m} e^{2 pi i m x}."""

    def test_single_mode_is_plane_wave(self, pot_free):
        vecs = band_sweep(pot_free, [np.pi], FourierCutoff(4)).eigenvectors[0]
        x = np.linspace(0.0, 1.0, 51)
        # lowest two coefficient vectors span modes m = 0 and m = -1
        vals = fourier_eval(vecs[:, 0], np.pi, x)
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
        k = 1.7
        vecs = band_sweep(pot_v, [k], cut64).eigenvectors[0]
        x = np.linspace(0.0, 1.0, 17)
        a = fourier_eval(vecs[:, 2], k, x + 1.0)
        b = np.exp(1j * k) * fourier_eval(vecs[:, 2], k, x)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_cell_normalization(self, pot_v, cut64):
        vecs = band_sweep(pot_v, [0.9], cut64).eigenvectors[0]
        x = np.arange(2048) / 2048.0
        vals = fourier_eval(vecs[:, 1], 0.9, x)
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
