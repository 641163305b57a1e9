import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_slope_oracle
from diracsoliton import FourierCutoff, ParityClass, PeriodicPotential, dirac
from diracsoliton.bloch import (
    assemble_coefficient_matrix,
    assemble_fb_matrix,
    band_sweep,
    fourier_eval,
)
from diracsoliton.dirac import (
    certify_dirac_point,
    compute_betas,
    compute_c_sharp,
    compute_theta_sharp,
    default_gap_k_grid,
    find_dirac_point,
    frequency_window_check,
    parity_block_split,
    verify_gap_opening,
)


class TestFindDiracPoint:
    def test_free_first_crossing(self, pot_free):
        M = 8
        band_pair, mu_star, g1, g2 = find_dirac_point(pot_free, FourierCutoff(M))
        assert mu_star == pytest.approx(np.pi**2, abs=1e-10)
        assert band_pair == (1, 2)
        assert abs(g1[M]) == pytest.approx(1.0, abs=1e-12)
        assert abs(g2[M - 1]) == pytest.approx(1.0, abs=1e-12)

    def test_free_second_crossing(self, pot_free):
        band_pair, mu_star, _, _ = find_dirac_point(pot_free, FourierCutoff(8), pair_selector=2)
        assert mu_star == pytest.approx(9.0 * np.pi**2, rel=1e-12)
        assert band_pair == (3, 4)

    def test_index_flip_identity(self, default_dirac):
        M = default_dirac.cutoff.M
        p, q = default_dirac.g1, default_dirac.g2
        for n in range(-M, M):
            assert q[n + M] == p[(-n - 1) + M]

    def test_pair_orthonormal(self, default_dirac):
        assert default_dirac.g1 @ default_dirac.g1 == pytest.approx(1.0, abs=1e-10)
        assert default_dirac.g2 @ default_dirac.g2 == pytest.approx(1.0, abs=1e-10)
        assert abs(default_dirac.g1 @ default_dirac.g2) < 1e-10

    def test_conjugation_and_inversion_symmetries(self, default_dirac):
        """The pair satisfies conj(Phi-+) = Phi-+ swapped and x -> -x swap."""
        from diracsoliton.bloch import fourier_eval

        x = np.linspace(0.0, 1.0, 41)
        phi1 = fourier_eval(default_dirac.g1, np.pi, x)
        phi2 = fourier_eval(default_dirac.g2, np.pi, x)
        assert np.max(np.abs(np.conj(phi1) - phi2)) < 1e-12
        phi1_neg = fourier_eval(default_dirac.g1, np.pi, -x)
        assert np.max(np.abs(phi1_neg - phi2)) < 1e-12

    def test_odd_potential_refused(self, pot_w):
        with pytest.raises(ValueError, match="even-index"):
            find_dirac_point(pot_w, FourierCutoff(8))

    def test_fine_cutoff_is_a_dirac_point(self, pot_v, default_dirac):
        """M = 1000: both parity blocks' eigenvalues agree, and mu* is M = 64's."""
        _, mu_star, _, _ = find_dirac_point(pot_v, FourierCutoff(1000))
        assert abs(mu_star - default_dirac.mu_star) < 1e-10


class TestParityBlockSplit:
    def test_free_blocks_diagonal(self, pot_free):
        A = assemble_fb_matrix(pot_free, np.pi, FourierCutoff(6))
        even, odd, _, _ = parity_block_split(A)
        assert np.allclose(even, np.diag(np.diag(even)))
        assert np.allclose(odd, np.diag(np.diag(odd)))

    def test_default_cross_block_exactly_zero(self, pot_v, cut64):
        A = assemble_fb_matrix(pot_v, np.pi, cut64)
        even, odd, even_pos, odd_pos = parity_block_split(A)
        assert np.max(np.abs(A[np.ix_(even_pos, odd_pos)])) == 0.0
        assert even.shape[0] + odd.shape[0] == A.shape[0]


class TestCSharp:
    def test_free_value(self, free_dirac):
        assert free_dirac.c_sharp == pytest.approx(-2.0 * np.pi, abs=1e-10)

    def test_sign_flip_invariance(self, default_dirac):
        g1, g2 = -default_dirac.g1, -default_dirac.g2
        assert compute_c_sharp(g1, g2) == pytest.approx(default_dirac.c_sharp)
        assert compute_theta_sharp(g1, g2, default_dirac.pot_W) == pytest.approx(
            default_dirac.theta_sharp
        )
        b1, b2 = compute_betas(g1, g2)
        assert b1 == pytest.approx(default_dirac.beta1)
        assert b2 == pytest.approx(default_dirac.beta2)


class TestBandSlopes:
    def test_free_slopes(self, pot_free, free_dirac):
        s_minus, s_plus = band_slope_oracle(pot_free, free_dirac)
        assert abs(s_minus) == pytest.approx(2.0 * np.pi, abs=1e-6)
        assert abs(s_plus) == pytest.approx(2.0 * np.pi, abs=1e-6)
        assert s_minus == pytest.approx(-s_plus, rel=1e-3)

    def test_default_slope_matches_c_sharp(self, pot_v, default_dirac):
        s_minus, s_plus = band_slope_oracle(pot_v, default_dirac)
        assert abs(s_minus) == pytest.approx(abs(default_dirac.c_sharp), rel=1e-4)
        assert abs(s_plus + s_minus) <= 1e-3 * abs(s_plus)

    def test_halving_h_refines_quadratically(self, pot_v, default_dirac):
        s1, _ = band_slope_oracle(pot_v, default_dirac, h=2e-3)
        s2, _ = band_slope_oracle(pot_v, default_dirac, h=1e-3)
        s3, _ = band_slope_oracle(pot_v, default_dirac, h=5e-4)
        # centered differences: error drops by about 4 per halving
        assert abs(s2 - s3) < 0.5 * abs(s1 - s2)

    def test_crossing_is_linear(self, pot_v, default_dirac):
        """Deviation from the linear law is quadratic in the offset."""
        c = abs(default_dirac.c_sharp)
        mu = default_dirac.mu_star
        i_lo = default_dirac.band_pair[0] - 1
        devs = {}
        for kappa in (1e-2, 1e-3):
            ev = band_sweep(pot_v, [np.pi + kappa], default_dirac.cutoff)
            devs[kappa] = abs(ev.eigenvalues[0, i_lo] - (mu - c * kappa))
        C = max(devs[k] / k**2 for k in devs)
        assert C < 1e3
        assert devs[1e-3] < 0.05 * devs[1e-2]


class TestThetaSharp:
    def test_free_value(self, free_dirac):
        assert free_dirac.theta_sharp == pytest.approx(0.5, abs=1e-10)

    def test_uncoupled_w_rejected(self, free_dirac):
        w3 = PeriodicPotential({3: 1.0}, ParityClass.ODD_INDEX)
        with pytest.raises(ValueError, match="does not open a gap"):
            compute_theta_sharp(free_dirac.g1, free_dirac.g2, w3)

    def test_even_w_rejected(self, free_dirac):
        w_even = PeriodicPotential({2: 1.0}, ParityClass.EVEN_INDEX)
        with pytest.raises(ValueError, match="odd-index"):
            compute_theta_sharp(free_dirac.g1, free_dirac.g2, w_even)

    def test_default_nonzero(self, default_dirac):
        assert abs(default_dirac.theta_sharp) > 1e-3


class TestBetas:
    def test_free_values(self, free_dirac):
        """Phi- = e^{i pi x}, Phi+ = e^{-i pi x}: exact finite sums give the
        closed forms beta1 = 1 and beta2 = mean(e^{4 pi i x}) = 0."""
        assert free_dirac.beta1 == 1.0
        assert free_dirac.beta2 == 0.0

    def test_default_ordering(self, default_dirac):
        assert default_dirac.beta1 > 0.0
        assert abs(default_dirac.beta2) <= default_dirac.beta1

    @pytest.mark.parametrize("lattice", ["default", "two-harmonic"])
    def test_equal_uniform_quadrature(self, request, cut64, lattice):
        """The finite sums against the cell means on a uniform grid.  The
        integrands hold modes |m| <= 4M only, so a grid of more than 4M
        points averages them exactly, up to rounding."""
        if lattice == "default":
            d = request.getfixturevalue("default_dirac")
        else:
            d = certify_dirac_point(
                PeriodicPotential({2: 20.0, 4: 5.0}, ParityClass.EVEN_INDEX),
                PeriodicPotential({1: 1.0, 3: 0.5}, ParityClass.ODD_INDEX),
                cut64,
                pair_selector=2,
            )
        for n_quad in (2048, 4099):
            x = np.arange(n_quad) / n_quad
            P1, P2 = fourier_eval(d.g1, 0.0, x), fourier_eval(d.g2, 0.0, x)
            beta1 = np.mean(np.abs(P1) ** 2 * np.abs(P2) ** 2)
            beta2 = np.mean(np.conj(P2) ** 2 * P1**2)
            assert d.beta1 == pytest.approx(beta1, abs=1e-14)
            assert d.beta2 == pytest.approx(beta2.real, abs=1e-14)
            assert abs(beta2.imag) <= 1e-14


class TestGapOpening:
    def test_delta_zero_has_violations(self, default_dirac):
        rep = verify_gap_opening(default_dirac, 0.0, 0.9)
        assert not rep.gap_open

    def test_default_gap_opens(self, default_dirac):
        rep = verify_gap_opening(default_dirac, 0.1, 0.9)
        assert rep.gap_open
        predicted = 0.1 * abs(default_dirac.theta_sharp)
        assert rep.half_gap_at_pi == pytest.approx(predicted, rel=0.1)

    def test_violation_count_monotone_in_a(self, default_dirac):
        delta = 0.4  # large perturbation so the first-order law degrades
        counts = [
            len(verify_gap_opening(default_dirac, delta, a).violations)
            for a in (0.5, 0.9, 0.999)
        ]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("delta,a", [(0.0, 0.9), (0.4, 0.999), (0.8, 0.999)])
    def test_windowed_banded_sweep_matches_dense_spectra(
        self, pot_v, pot_w, default_dirac, delta, a
    ):
        """Violations equal those read off the full dense spectrum at each k."""
        rep = verify_gap_opening(default_dirac, delta, a)
        mu, M = default_dirac.mu_star, default_dirac.cutoff.M
        lo, hi = rep.interval
        coeffs = {**pot_v.coeffs, **{j: delta * w for j, w in pot_w.coeffs.items()}}
        expect = []
        for k in default_gap_k_grid():
            ev = np.linalg.eigvalsh(assemble_coefficient_matrix(coeffs, k, M))
            if delta == 0.0:
                inside = np.abs(ev - mu) <= 1e-9 * (1.0 + abs(mu))
            else:
                inside = (ev > lo) & (ev < hi)
            expect += [(k, n + 1, ev[n]) for n in np.where(inside)[0]]
        assert expect
        assert [v[:2] for v in rep.violations] == [e[:2] for e in expect]
        # both solvers are backward stable to eps |H(k)|, |H(k)| ~ (2 pi M)^2
        assert np.allclose([v[2] for v in rep.violations], [e[2] for e in expect], atol=1e-9)

    def test_k_grid_is_the_sorted_union(self):
        """The grid np.unique made of the two grids, bit for bit."""
        local = np.pi + 0.5 * np.cos(np.linspace(0.0, np.pi, 401))
        union = np.unique(np.concatenate([local, np.linspace(0.0, 2.0 * np.pi, 81)]))
        assert default_gap_k_grid().tobytes() == union.tobytes()

    def test_bad_safety_fraction(self, default_dirac):
        with pytest.raises(ValueError, match="safety fraction"):
            verify_gap_opening(default_dirac, 0.1, 1.5)

    def test_exact_solves_only_where_flagged(self, default_dirac, monkeypatch):
        """Dense solves: the half-gap at pi, plus one per flagged k-point."""
        calls = []
        assemble = dirac.assemble_coefficient_matrix

        def counted(*args, **kwargs):
            calls.append(args[1])  # k
            return assemble(*args, **kwargs)

        monkeypatch.setattr(dirac, "assemble_coefficient_matrix", counted)
        assert verify_gap_opening(default_dirac, 0.1, 0.9).gap_open
        assert calls == [np.pi]
        calls.clear()
        rep = verify_gap_opening(default_dirac, 0.0, 0.9)
        flagged = sorted({k for k, _, _ in rep.violations})
        assert len(flagged) == 1
        assert calls == flagged + [np.pi]


class TestInertiaScreen:
    @given(
        amps=st.lists(st.floats(-30.0, 30.0), min_size=4, max_size=4),
        M=st.sampled_from([6, 16, 64]),
        ks=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=3),
        band=st.integers(0, 12),
        offset=st.sampled_from([-1e-12, 1e-12]),
        generic=st.floats(-40.0, 400.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_counts_match_dense_unless_flagged(self, amps, M, ks, band, offset, generic):
        """Eigenvalues below sigma, on a dense eigenvalue +- 1e-12 or generic."""
        coeffs = dict(zip((2, 4, 1, 3), amps))  # even and odd cosine series
        spectra = [
            np.linalg.eigvalsh(assemble_coefficient_matrix(coeffs, k, M)) for k in ks
        ]
        sigmas = [spectra[0][band] + offset, generic]
        counts, nearest = dirac._inertia_counts(coeffs, M, ks, sigmas)
        margin = dirac._FLAG_RTOL * (1.0 + np.abs(sigmas))[:, None]
        expect = np.array([[np.count_nonzero(ev < s) for ev in spectra] for s in sigmas])
        flagged = nearest <= margin
        assert flagged[0, 0]  # an eigenvalue on the edge always goes to the exact path
        assert np.array_equal(counts[~flagged], expect[~flagged])


class TestFrequencyWindow:
    def test_inside_window(self, default_dirac):
        assert frequency_window_check(default_dirac, 0.0, 0.9)

    def test_outside_window(self, default_dirac):
        theta = abs(default_dirac.theta_sharp)
        assert not frequency_window_check(default_dirac, 0.95 * theta, 0.9)

    def test_bad_fraction_rejected(self, default_dirac):
        with pytest.raises(ValueError, match="fraction"):
            frequency_window_check(default_dirac, 0.0, 1.0)
