import itertools

import mpmath
import numpy as np
import pytest

from conftest import equilibria, initial_condition, shoot_homoclinic
from diracsoliton import NLDParams, integrate_homoclinic
from diracsoliton.homoclinic import hamiltonian, kernel_check_on_Y


def angle_monotone(profile, floor_rel=1e-6):
    """Whether the unwrapped phase-plane angle is one-signed monotone.

    Samples with amplitude below floor_rel times the peak are excluded:
    there the angle increments sit at rounding level (the angle itself
    tends to a constant eigendirection) and carry no information.
    """
    theta = np.unwrap(np.arctan2(profile.v, profile.u))
    amp = np.hypot(profile.u, profile.v)
    keep = amp > floor_rel * np.max(amp)
    d = np.diff(theta)[keep[:-1] & keep[1:]]
    assert len(d) > 0, "no samples above the amplitude floor"
    return bool(np.all(d < 0.0) or np.all(d > 0.0))


class TestNLDParams:
    def test_detuning_outside_window_rejected(self):
        with pytest.raises(ValueError, match="mu_sharp"):
            NLDParams(1.0, 0.5, 0.5, 1.0, 0.0)

    def test_beta_ordering_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            NLDParams(1.0, 1.0, 0.0, 0.3, 0.5)

    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            NLDParams(0.0, 1.0, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            NLDParams(1.0, 0.0, 0.0, 1.0, 0.0)

    def test_derived_quartic_coefficients(self):
        p = NLDParams(1.0, 1.0, 0.0, 1.0, 0.0)
        assert p.a == pytest.approx(0.75)
        assert p.b == pytest.approx(0.75)
        q = NLDParams(1.0, 1.0, 0.0, 2.0, -1.0)
        assert q.a == pytest.approx(2.25)
        assert q.b == pytest.approx(1.25)
        assert q.a >= 0.0 and q.b > 0.0

    def test_decay_rate(self):
        p = NLDParams(-2.0, 1.0, 0.6, 1.0, 0.0)
        assert p.decay_rate == pytest.approx(np.sqrt(1.0 - 0.36) / 2.0)


class TestHamiltonian:
    def test_origin_is_zero(self, canonical_params):
        assert hamiltonian(canonical_params, 0.0, 0.0) == 0.0

    def test_launch_point_on_zero_level(self, canonical_params):
        u0, v0 = initial_condition(canonical_params)
        assert u0 == pytest.approx(np.sqrt(8.0 / 3.0), rel=1e-14)
        assert v0 == 0.0
        assert hamiltonian(canonical_params, u0, v0) == pytest.approx(0.0, abs=1e-14)

    def test_side_equilibrium_energy(self, canonical_params):
        # H at (sqrt((theta - mu)/b), 0) equals -(theta - mu)^2 / (4b)
        r = np.sqrt(4.0 / 3.0)
        assert hamiltonian(canonical_params, r, 0.0) == pytest.approx(-1.0 / 3.0)


class TestInitialCondition:
    def test_amplitude_vanishes_at_gap_edge(self):
        p = NLDParams(1.0, 1.0, 0.999, 1.0, 0.0)
        u0, _ = initial_condition(p)
        assert u0 < 0.06

    def test_negative_theta_launches_on_v_axis(self):
        p = NLDParams(1.0, -1.0, 0.0, 1.0, 0.0)
        u0, v0 = initial_condition(p)
        assert u0 == 0.0 and v0 > 0.0


class TestEquilibria:
    def test_positive_theta_on_u_axis(self, canonical_params):
        pts = equilibria(canonical_params)
        assert (0.0, 0.0) in pts
        us = sorted(u for u, v in pts if v == 0.0 and u != 0.0)
        assert us[0] == pytest.approx(-np.sqrt(4.0 / 3.0))
        assert us[1] == pytest.approx(np.sqrt(4.0 / 3.0))

    def test_negative_theta_on_v_axis(self):
        p = NLDParams(1.0, -1.0, 0.0, 1.0, 0.0)
        pts = equilibria(p)
        assert all(u == 0.0 for u, v in pts)


class TestIntegration:
    def test_energy_conservation(self, canonical_profile):
        assert np.max(np.abs(canonical_profile.hamiltonian_trace)) <= 1e-9
        assert canonical_profile.h_drift_max <= 1e-9

    def test_parity(self, canonical_profile):
        u1, v1 = canonical_profile.evaluate(3.17)
        u2, v2 = canonical_profile.evaluate(-3.17)
        assert u1 == pytest.approx(u2, abs=1e-9)
        assert v1 == pytest.approx(-v2, abs=1e-9)

    def test_decay_rate_fit(self, canonical_profile):
        assert canonical_profile.decay_rate_fit == pytest.approx(1.0, rel=0.02)

    def test_angle_monotone(self, canonical_profile):
        assert angle_monotone(canonical_profile)

    def test_spinor_conjugation(self, canonical_profile):
        assert np.array_equal(
            canonical_profile.psi_plus, np.conj(canonical_profile.psi_minus)
        )

    def test_short_domain_rejected(self, canonical_params):
        with pytest.raises(ValueError, match="decay lengths"):
            integrate_homoclinic(canonical_params, y_max=3.0)

    def test_negative_theta_swaps_parity(self):
        p = NLDParams(1.0, -1.0, 0.0, 1.0, 0.0)
        prof = integrate_homoclinic(p, y_max=20.0)
        u1, v1 = prof.evaluate(2.3)
        u2, v2 = prof.evaluate(-2.3)
        assert u1 == pytest.approx(-u2, abs=1e-9)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_detuned_runs_conserve_energy(self):
        for mu in (0.3, 0.6):
            p = NLDParams(1.0, 1.0, mu, 1.0, 0.0)
            prof = integrate_homoclinic(p)
            assert prof.h_drift_max <= 1e-9
            assert prof.decay_rate_fit == pytest.approx(p.decay_rate, rel=0.02)

    def test_default_example_profile(self, default_profile, default_params):
        assert default_profile.h_drift_max <= 1e-9
        assert default_profile.decay_rate_fit == pytest.approx(
            default_params.decay_rate, rel=0.02
        )


# theta#, c#, mu#, (beta1, beta2): both signs of theta# and c#, detuning
# either way, a = b and a > b
CLOSED_FORM_CASES = list(
    itertools.product((0.37, -0.5), (-5.9, 18.5), (0.0, 0.15, -0.2), ((1.0, 0.0), (2.0, -1.0)))
)


class TestClosedForm:
    """The closed-form orbit against independent evaluations of it."""

    @pytest.mark.parametrize("theta,c,mu,betas", CLOSED_FORM_CASES)
    def test_matches_backward_shooting(self, theta, c, mu, betas):
        params = NLDParams(c, theta, mu, *betas)
        prof = integrate_homoclinic(params)
        y = np.linspace(0.0, prof.y_max, 4001)
        shot = shoot_homoclinic(params, prof.y_max)(y)
        assert np.max(np.abs(np.stack(prof.evaluate(y)) - shot)) <= 1e-11
        assert np.max(np.abs(prof.hamiltonian_trace)) <= 1e-14

    @pytest.mark.parametrize("theta,c,mu,betas", CLOSED_FORM_CASES)
    def test_tail_to_relative_precision(self, theta, c, mu, betas):
        """Deep in the tail, against the same formula at 50 digits.

        (|theta#| - mu#) sech^2 written as |theta#|(1 - t^2) - mu#(1 + t^2)
        cancels there and misses this by orders of magnitude.
        """
        params = NLDParams(c, theta, mu, *betas)
        prof = integrate_homoclinic(params)
        y = np.linspace(0.8, 1.0, 21) * prof.y_max
        got = np.stack(prof.evaluate(y))
        with mpmath.workdps(50):
            th, mu_, c_ = (mpmath.mpf(x) for x in (abs(theta), mu, c))
            a, b = (mpmath.mpf(x) for x in (params.a, params.b))
            r = mpmath.sqrt(th**2 - mu_**2) / abs(c_)
            kappa = mpmath.sqrt((th - mu_) / (th + mu_))
            for col, yy in enumerate(y):
                ry = r * mpmath.mpf(yy)
                t = -mpmath.sign(c_) * kappa * mpmath.tanh(ry)
                amp = mpmath.sqrt(2 * (th - mu_) / (b * (1 + t**4) + 2 * a * t**2))
                amp *= mpmath.sech(ry)
                ref = (amp, t * amp) if theta > 0 else (-t * amp, amp)
                for row in range(2):
                    rel = abs((got[row, col] - ref[row]) / ref[row])
                    assert rel <= 1e-12, (row, yy, float(rel))


class TestLinearization:
    """The staggered band of kernel_check_on_Y applied to sampled modes."""

    def test_derivative_spinor_near_kernel(self, canonical_profile, sector_residual):
        odd = integrate_homoclinic(NLDParams(1.0, -1.0, 0.0, 1.0, 0.0), y_max=20.0)
        for prof in (canonical_profile, odd):
            res = [sector_residual(prof, n) for n in (601, 1201, 2401)]
            # fourth order: 16x per halving of h
            assert res[0] > 10.0 * res[1] > 100.0 * res[2], res
            assert sector_residual(prof, 6001) <= 1e-6

    def test_soliton_itself_not_in_kernel(self, canonical_profile, sector_residual):
        assert sector_residual(canonical_profile, 6001, translation=False) > 1e-3


class TestKernelCheck:
    def test_restricted_vs_unrestricted(self, canonical_params, canonical_profile):
        res = kernel_check_on_Y(canonical_params, canonical_profile)
        assert res.sigma_min_unrestricted <= 1e-4 * res.operator_norm
        assert res.sigma_min_restricted >= 10.0 * res.sigma_min_unrestricted
        assert res.sigma_min_restricted >= 0.1 * np.sqrt(
            canonical_params.theta_sharp**2 - canonical_params.mu_sharp**2
        )

    def test_gap_closing_trend(self):
        sigmas = []
        for mu in (0.0, 0.5, 0.8):
            p = NLDParams(1.0, 1.0, mu, 1.0, 0.0)
            prof = integrate_homoclinic(p)
            sigmas.append(kernel_check_on_Y(p, prof).sigma_min_restricted)
        assert sigmas[0] > sigmas[1] > sigmas[2]

    def test_negative_theta_restriction(self):
        p = NLDParams(1.0, -1.0, 0.0, 1.0, 0.0)
        prof = integrate_homoclinic(p, y_max=20.0)
        res = kernel_check_on_Y(p, prof)
        assert res.sigma_min_restricted >= 10.0 * res.sigma_min_unrestricted

    def test_canonical_margin_matches_pseudospectral_reference(
        self, canonical_params, canonical_profile
    ):
        """Y-sector margin against a dense Fourier-pseudospectral operator.

        N is odd: an even N zeroes the Nyquist derivative and adds a
        spurious mode near 0.80.
        """
        n, half = 255, canonical_profile.y_max
        y = (np.arange(n) - n // 2) * (2.0 * half / n)
        u, v = canonical_profile.evaluate(y)
        diff = np.subtract.outer(np.arange(n), np.arange(n))
        with np.errstate(divide="ignore"):
            D = 0.5 * (-1.0) ** diff / np.sin(np.pi * diff / n)
        np.fill_diagonal(D, 0.0)
        D *= np.pi / half
        p = canonical_params
        Huu = 3.0 * p.b * u**2 + p.a * v**2 + p.mu_sharp - p.theta_sharp
        Hvv = 3.0 * p.b * v**2 + p.a * u**2 + p.mu_sharp + p.theta_sharp
        Huv = np.diag(2.0 * p.a * u * v)
        # L = c J d/dy - Hess H on (p, q)
        L = np.block(
            [
                [-np.diag(Huu), -Huv - p.c_sharp * D],
                [-Huv + p.c_sharp * D, -np.diag(Hvv)],
            ]
        )
        # Y = {p even, q odd}: the +1 eigenspace of (p, q)(y) -> (p(-y), -q(-y))
        R = np.zeros((2 * n, 2 * n))
        R[np.arange(n), np.arange(n)[::-1]] = 1.0
        R[n + np.arange(n), n + np.arange(n)[::-1]] = -1.0
        e, Q = np.linalg.eigh(R)
        B = Q[:, e > 0]
        ref = np.min(np.abs(np.linalg.eigvalsh(B.T @ L @ B)))
        res = kernel_check_on_Y(canonical_params, canonical_profile)
        assert res.sigma_min_restricted == pytest.approx(ref, abs=1e-4)

    def test_default_lattice_margin_converges(self, default_params, default_profile):
        unrestricted = []
        for n_points in (601, 1201, 2401):
            res = kernel_check_on_Y(default_params, default_profile, n_points)
            assert res.sigma_min_restricted == pytest.approx(0.34475, abs=1e-3)
            unrestricted.append(res.sigma_min_unrestricted)
        # the translation mode closes at fourth order: 16x per halving of h
        assert unrestricted[0] > 10.0 * unrestricted[1] > 100.0 * unrestricted[2]
