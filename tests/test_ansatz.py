import copy
import dataclasses

import numpy as np
import pytest

from diracsoliton import (
    FourierCutoff,
    NLDParams,
    ParityClass,
    PeriodicPotential,
    certify_dirac_point,
    integrate_homoclinic,
)
from diracsoliton.ansatz import (
    _kernel,
    _spinor,
    _synthesise,
    assemble_udelta,
    build_G1,
    build_U0,
    evaluate_udelta,
    extended_cutoff,
    fit_order,
    residual_norm,
    solvability_check,
    solve_U1,
    y_factors,
)
from diracsoliton.bloch import (
    assemble_coefficient_matrix,
    conj_flip,
    coupling_matrix,
    fourier_eval,
)
from diracsoliton.newton import discretize_operator, staggered_grid


@pytest.fixture(scope="module")
def default_corrector(default_dirac, default_profile):
    return solve_U1(default_dirac, build_G1(default_dirac, default_profile))


@pytest.fixture(scope="module")
def free_corrector(free_dirac, free_profile):
    return solve_U1(free_dirac, build_G1(free_dirac, free_profile))


@pytest.fixture(scope="module")
def detuned_profile(default_params):
    """Homoclinic of the spinor system with theta# off by 0.1%.

    It solves its own system exactly, so it only breaks the equations
    of the Dirac point the forcing is built from.
    """
    theta = default_params.theta_sharp * (1.0 + 1e-3)
    return integrate_homoclinic(dataclasses.replace(default_params, theta_sharp=theta))


class TestBuildU0:
    def test_free_closed_form(self, free_dirac, free_profile):
        x = np.linspace(-4.0, 4.0, 201)
        delta = 0.05
        field = build_U0(free_dirac, free_profile, delta, x)
        u, v = free_profile.evaluate(delta * x)
        expect = u * np.cos(np.pi * x) - v * np.sin(np.pi * x)
        assert np.max(np.abs(field - expect)) < 1e-13

    def test_real_and_even(self, default_dirac, default_profile):
        x = np.linspace(-5.0, 5.0, 401)
        field = build_U0(default_dirac, default_profile, 0.05, x)
        assert field.dtype == np.float64
        assert np.max(np.abs(field - field[::-1])) < 1e-12

    def test_annihilated_by_cell_operator(self, default_dirac):
        resid = (
            assemble_coefficient_matrix(
                default_dirac.pot_V.coeffs, np.pi, default_dirac.cutoff.M
            )
            @ default_dirac.g1
            - default_dirac.mu_star * default_dirac.g1
        )
        assert np.max(np.abs(resid)) < 1e-8


# y-factors of the ten terms: Psi+ = conj(Psi-)
_TEN_Y_FACTORS = [
    lambda p, dp: 2.0 * dp,
    lambda p, dp: 2.0 * np.conj(dp),
    lambda p, dp: p,
    lambda p, dp: np.conj(p),
    lambda p, dp: np.abs(p) ** 2 * p,
    lambda p, dp: np.abs(p) ** 2 * np.conj(p),
    lambda p, dp: p**3,
    lambda p, dp: np.conj(p) ** 3,
    lambda p, dp: np.abs(p) ** 2 * np.conj(p),
    lambda p, dp: np.abs(p) ** 2 * p,
]


def _ten_term_forcing(dirac, profile):
    """x-profiles of G1 written out as ten separable terms, the
    reference for build_G1, at the extended cutoff; _TEN_Y_FACTORS are
    their y-factors.  Each conjugate pair is a row of its own, and the
    cubic term 3 |Phi-|^2 Phi- |Psi-|^2 Psi- is split into a 1x and a
    2x row.
    """
    cut = extended_cutoff(dirac.cutoff)
    P, Q = _kernel(dirac)
    dx = 1j * np.pi * (2 * cut.indices() + 1)
    C = coupling_matrix(dirac.pot_W.coeffs, cut.size)
    mu = profile.params.mu_sharp

    def cube(a, b, c):
        return np.convolve(np.convolve(a, b), c)[2 * cut.M - 1 : 4 * cut.M]

    PPQ, PQQ = cube(P, P, Q), cube(P, Q, Q)
    x_profiles = np.stack([
        dx * P, dx * Q, mu * P - C @ P, mu * Q - C @ Q, PPQ, PQQ,
        cube(P, P, P), cube(Q, Q, Q), 2.0 * PQQ, 2.0 * PPQ,
    ])
    return x_profiles


class TestBuildG1:
    def test_four_terms(self, default_dirac, default_profile):
        x_profiles = build_G1(default_dirac, default_profile)
        assert x_profiles.shape[0] == 4
        assert len(list(y_factors(0.7 - 0.4j, 0.2 + 0.5j))) == 4

    def test_free_profiles_are_sparse(self, free_dirac, free_profile):
        for coeffs in build_G1(free_dirac, free_profile):
            assert int(np.sum(np.abs(coeffs) > 1e-14)) <= 3

    def test_extended_cutoff(self, default_dirac, default_profile):
        x_profiles = build_G1(default_dirac, default_profile)
        M_ext = 3 * default_dirac.cutoff.M + 2
        assert x_profiles.shape == (4, 2 * M_ext + 1)
        assert extended_cutoff(default_dirac.cutoff).M == M_ext

    @pytest.mark.parametrize("lattice", ["default", "free"])
    def test_rows_match_their_physical_definition(self, request, lattice):
        """Each x-profile, summed at sample points, against its definition,
        and H + c.c. against the ten physical terms of G1.

        Phi-, Phi+ and W are sampled directly and multiplied pointwise;
        dx Phi comes from fourth-order differences of the sampled carrier.
        """
        dirac = request.getfixturevalue(f"{lattice}_dirac")
        profile = request.getfixturevalue(f"{lattice}_profile")
        mu = 0.03  # a detuning, so mu# enters the (mu# - W) rows
        detuned = dataclasses.replace(
            profile, params=dataclasses.replace(profile.params, mu_sharp=mu)
        )
        x_profiles = build_G1(dirac, detuned)
        x = np.linspace(-1.3, 2.1, 37)
        rows = fourier_eval(x_profiles, np.pi, x)
        pm, pp = (fourier_eval(g, np.pi, x) for g in (dirac.g1, dirac.g2))
        W = dirac.pot_W(x)
        s = 1e-3
        weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * s)
        stencil = x + s * np.arange(-2.0, 3.0)[:, None]
        dpm, dpp = (weights @ fourier_eval(g, np.pi, stencil) for g in (dirac.g1, dirac.g2))
        expect = [
            (dpm, 1e-8),
            ((mu - W) * pm, 1e-13),
            (np.abs(pm) ** 2 * pm, 1e-13),
            (pm**3, 1e-13),
        ]
        for j, (row, (want, tol)) in enumerate(zip(rows, expect)):
            err = np.max(np.abs(row - want)) / np.max(np.abs(want))
            assert err < tol, (j, err)

        ten = [
            dpm, dpp, (mu - W) * pm, (mu - W) * pp,
            np.abs(pm) ** 2 * pm, np.abs(pp) ** 2 * pp,
            pm**2 * np.conj(pp), pp**2 * np.conj(pm),
            2.0 * np.abs(pm) ** 2 * pp, 2.0 * np.abs(pp) ** 2 * pm,
        ]
        for psi, dpsi in [(0.7 - 0.4j, 0.2 + 0.5j), (-0.3 + 1.1j, -0.8 - 0.1j)]:
            H = sum(g * f for f, g in zip(x_profiles, y_factors(psi, dpsi)))
            got = fourier_eval(H + conj_flip(H), np.pi, x)
            want = sum(g(psi, dpsi) * f for f, g in zip(ten, _TEN_Y_FACTORS))
            assert np.max(np.abs(want.imag)) < 1e-12 * np.max(np.abs(want))
            assert np.max(np.abs(got - want)) < 1e-8 * np.max(np.abs(want))

    def test_W_beyond_the_extended_cutoff_rejected(self, pot_free, free_profile):
        """M = 16: certify_dirac_point rejects a W index of 2M + 1 = 33,
        which no two retained modes couple through; 2M - 1 = 31 is
        accepted, and build_G1, its W Phi within 3M < M_ext = 50, runs."""

        def lattice(j):
            W = PeriodicPotential({1: 1.0, j: 0.5}, ParityClass.ODD_INDEX)
            return certify_dirac_point(pot_free, W, FourierCutoff(16))

        build_G1(lattice(31), free_profile)
        with pytest.raises(ValueError, match=r"W cosine index 33 above 2M = 32"):
            lattice(33)

    def test_terms_vanish_with_the_envelope(self, default_dirac, default_profile):
        """Far in the tail every slow factor is at the decay floor."""
        y = np.array([default_profile.y_max])
        psi, dpsi = _spinor(default_profile.params, *default_profile.evaluate(y))
        for g in y_factors(psi, dpsi):
            assert abs(g[0]) < 1e-5


class TestSolvability:
    def test_converged_envelope_projects_to_zero(
        self, default_dirac, default_profile
    ):
        x_profiles = build_G1(default_dirac, default_profile)
        rel = solvability_check(
            default_dirac, default_profile, x_profiles, default_profile.y_grid[::10]
        )
        assert rel <= 1e-6

    def test_perturbed_envelope_detected(
        self, default_dirac, default_profile, detuned_profile
    ):
        x_profiles = build_G1(default_dirac, detuned_profile)
        rel = solvability_check(
            default_dirac, detuned_profile, x_profiles, default_profile.y_grid[::10]
        )
        assert 1e-5 < rel < 1e-1

    def test_fail_tol_raises_with_location(
        self, default_dirac, default_profile, detuned_profile
    ):
        x_profiles = build_G1(default_dirac, detuned_profile)
        with pytest.raises(RuntimeError, match="y="):
            solvability_check(
                default_dirac, detuned_profile, x_profiles,
                default_profile.y_grid[::10], fail_tol=1e-6,
            )


    def test_offset_envelope_raises(self, default_dirac, default_profile):
        """u + 1e-3 breaks the spinor system; dy Psi must not hide it."""
        def shifted(y):
            u, v = default_profile.evaluate(y)
            return u + 1e-3, v

        offset = copy.copy(default_profile)
        offset.evaluate = shifted
        x_profiles = build_G1(default_dirac, offset)
        with pytest.raises(RuntimeError, match="kernel projection"):
            solvability_check(
                default_dirac, offset, x_profiles,
                default_profile.y_grid[::10], fail_tol=1e-6,
            )


class TestSolveU1:
    def test_pure_kernel_forcing_gives_zero(self, default_dirac):
        vec = _kernel(default_dirac)[0].astype(complex)
        sols = solve_U1(default_dirac, vec[None, :])  # the one-term forcing vec(x) * 1
        assert np.max(np.abs(sols)) < 1e-12

    def test_eigenvector_identity(self, default_dirac):
        Me = extended_cutoff(default_dirac.cutoff).M
        A = assemble_coefficient_matrix(default_dirac.pot_V.coeffs, np.pi, Me)
        evals, evecs = np.linalg.eigh(A)
        mu = default_dirac.mu_star
        third = np.where(np.abs(evals - mu) > 1e-6 * (1 + abs(mu)))[0][2]
        vec = (evals[third] - mu) * evecs[:, third]
        sols = solve_U1(default_dirac, vec[None, :].astype(complex))
        assert np.max(np.abs(sols[0] - evecs[:, third])) < 1e-9

    def test_kernel_orthogonality(self, default_dirac, default_profile):
        x_profiles = build_G1(default_dirac, default_profile)
        sols = solve_U1(default_dirac, x_profiles)  # raises on a residual above 1e-10
        for gp in _kernel(default_dirac):  # the carriers at the extended cutoff, real
            assert np.max(np.abs(sols @ gp)) <= 1e-10

    def test_displaced_crossing_energy_detected(self, default_dirac, default_profile):
        x_profiles = build_G1(default_dirac, default_profile)
        shifted = dataclasses.replace(default_dirac, mu_star=default_dirac.mu_star + 5e-4)
        with pytest.raises(RuntimeError, match="double eigenvalue"):
            solve_U1(shifted, x_profiles)


class TestAssemble:
    def test_delta_zero_rejected(self, default_dirac, default_profile, default_corrector):
        with pytest.raises(ValueError, match="delta"):
            assemble_udelta(
                default_dirac, default_profile, default_corrector, 0.0,
                staggered_grid(2000.0, 1 / 64),
            )

    def test_norm_is_order_one_in_delta(self, free_dirac, free_profile):
        h = 1 / 64
        norms = []
        for delta in (0.2, 0.1):
            ell = 1.0 / free_profile.params.decay_rate
            x = staggered_grid(10.5 * ell / delta, h)
            u0 = np.sqrt(delta) * build_U0(free_dirac, free_profile, delta, x)
            norms.append(np.sqrt(h * np.sum(u0**2)))
        assert abs(norms[0] - norms[1]) < 0.1 * norms[0]

    def test_corrector_contribution_scales(self, free_dirac, free_profile, free_corrector):
        h = 1 / 64
        ell = 1.0 / free_profile.params.decay_rate
        diffs = []
        for delta in (0.2, 0.1):
            x = staggered_grid(10.5 * ell / delta, h)
            with_c = assemble_udelta(free_dirac, free_profile, free_corrector, delta, x)
            without = np.sqrt(delta) * build_U0(free_dirac, free_profile, delta, with_c.x_grid)
            diffs.append(np.sqrt(h * np.sum((with_c.samples - without) ** 2)))
        # difference is sqrt(delta)*delta*U1 with U1-norm ~ delta^{-1/2}: O(delta)
        assert diffs[1] / diffs[0] == pytest.approx(0.5, rel=0.25)

    def test_field_even(self, free_dirac, free_profile, free_corrector):
        ell = 1.0 / free_profile.params.decay_rate
        x = staggered_grid(10.5 * ell / 0.1, 1 / 64)
        fld = assemble_udelta(free_dirac, free_profile, free_corrector, 0.1, x)
        mirror, _, _ = evaluate_udelta(
            free_dirac, free_profile, free_corrector, 0.1, -fld.x_grid
        )
        assert np.max(np.abs(fld.samples - mirror)) < 1e-11
        # the field keeps the grid it was synthesised on, not a copy
        assert fld.x_grid is x

    @pytest.mark.parametrize("lattice", ["default", "free"])
    def test_corrector_is_real_part_of_ten_term_sum(self, request, lattice):
        """U1 = 2 Re(four-term sum) against the ten-term solution summed
        explicitly, whose imaginary part must cancel."""
        dirac = request.getfixturevalue(f"{lattice}_dirac")
        profile = request.getfixturevalue(f"{lattice}_profile")
        corrector = request.getfixturevalue(f"{lattice}_corrector")
        ten = solve_U1(dirac, _ten_term_forcing(dirac, profile))
        delta = 0.1
        x = np.linspace(-20.0, 20.0, 161)
        psi, dpsi = _spinor(profile.params, *profile.evaluate(delta * x))
        rows = fourier_eval(ten, np.pi, x)
        want = sum(row * g(psi, dpsi) for row, g in zip(rows, _TEN_Y_FACTORS))
        scale = np.max(np.abs(want.real))
        assert np.max(np.abs(want.imag)) < 1e-12 * scale
        _, u1 = _synthesise(dirac, profile, delta, x, corrector)
        assert np.max(np.abs(u1 - want.real)) < 1e-12 * scale

    def test_evaluate_on_custom_grid(self, free_dirac, free_profile, free_corrector):
        x = np.linspace(0.25, 30.0, 500)
        samples, u0, u1 = evaluate_udelta(free_dirac, free_profile, free_corrector, 0.1, x)
        assert np.array_equal(u0, build_U0(free_dirac, free_profile, 0.1, x))
        assert np.allclose(samples, np.sqrt(0.1) * (u0 + 0.1 * u1))


class TestResidual:
    def test_zero_field(self, pot_free, pot_w):
        op = discretize_operator(pot_free, pot_w, 0.1, 1.0, 1.0, 1 / 64, 1.0)
        assert residual_norm(op, np.zeros_like(op.x_grid)) == 0.0

    def test_manufactured_linear_mode(self, pot_free, pot_w):
        """A small plane-wave probe leaves only discretization residue."""
        q = 3.0
        eps = 1e-4
        op = discretize_operator(pot_free, pot_w, 0.0, q**2, 16.0, 1 / 128, 1.0)
        # residual = FD error O(h^4 q^6 eps) plus the cubic term O(eps^3)
        assert residual_norm(op, eps * np.cos(q * op.x_grid)) < 1e-8

    def test_coarse_grid_rejected(self, pot_free, pot_w):
        with pytest.raises(ValueError, match="coarse"):
            discretize_operator(pot_free, pot_w, 0.1, 1.0, 1.0, 1 / 32, 1.0)

    def test_residual_order_free_example(
        self, free_dirac, free_profile, free_corrector, pot_free, pot_w
    ):
        h = 1 / 128
        ell = 1.0 / free_profile.params.decay_rate
        deltas = [0.2, 0.1]
        norms = []
        for d in deltas:
            L = 10.5 * ell / d
            # mu# = 0: mu_delta is mu*
            op = discretize_operator(pot_free, pot_w, d, free_dirac.mu_star, L, h, 1.0)
            f = assemble_udelta(free_dirac, free_profile, free_corrector, d, op.x_grid)
            norms.append(residual_norm(op, f.samples))
        assert fit_order(deltas, norms) >= 0.8

    @pytest.mark.parametrize("amp", [1.0, -1.0], ids=["even", "odd"])
    def test_matches_full_line_stencil(self, pot_free, amp):
        """The half-line operator gives the full-line five-point residual.

        Reference: the field mirrored by parity onto [-L, L], the
        fourth-order stencil (-1, 16, -30, 16, -1) / 12h^2 and five
        points left out at both ends.
        """
        W = PeriodicPotential({1: amp}, ParityClass.ODD_INDEX)
        dirac = certify_dirac_point(pot_free, W, FourierCutoff(16))
        profile = integrate_homoclinic(
            NLDParams(dirac.c_sharp, dirac.theta_sharp, 0.0, dirac.beta1, dirac.beta2)
        )
        delta, h = 0.1, 1 / 64
        L = 10.5 / (profile.params.decay_rate * delta)
        corrector = solve_U1(dirac, build_G1(dirac, profile))
        mu_delta = dirac.mu_star  # mu# = 0
        op = discretize_operator(pot_free, W, delta, mu_delta, L, h, dirac.theta_sharp)
        fld = assemble_udelta(dirac, profile, corrector, delta, op.x_grid)
        got = residual_norm(op, fld.samples)

        x = np.concatenate([-fld.x_grid[::-1], fld.x_grid])
        u = np.concatenate([np.sign(dirac.theta_sharp) * fld.samples[::-1], fld.samples])
        stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h**2)
        d2 = np.convolve(u, stencil, mode="valid")[3:-3]
        inner = slice(5, len(u) - 5)
        pot = pot_free(x[inner]) + delta * W(x[inner]) - mu_delta
        r = -d2 + pot * u[inner] - u[inner] ** 3
        expect = np.sqrt(h * np.sum(r**2))
        assert got == pytest.approx(expect, rel=1e-8)


class TestFitOrder:
    def test_exact_power_law(self):
        d = np.array([0.2, 0.1, 0.05])
        assert fit_order(d, 3.0 * d**1.7) == pytest.approx(1.7, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="two"):
            fit_order([0.1], [1.0])
        with pytest.raises(ValueError, match="two distinct"):
            fit_order([0.2, 0.2], [1.0, 2.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            fit_order([0.1, 0.05], [1.0, 0.0])
