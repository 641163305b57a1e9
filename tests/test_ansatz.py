import copy
import dataclasses

import numpy as np
import pytest

from diracsoliton import (
    FourierCutoff,
    NLDParams,
    ParityClass,
    PeriodicPotential,
    ansatz,
    certify_dirac_point,
    integrate_homoclinic,
)
from diracsoliton.ansatz import (
    TwoScaleField,
    _spinor,
    assemble_udelta,
    build_G1,
    build_U0,
    evaluate_udelta,
    extended_cutoff,
    fit_order,
    residual_norm,
    solvability_check,
    solve_U1,
    staggered_grid,
)
from diracsoliton.bloch import assemble_coefficient_matrix, fourier_eval
from diracsoliton.newton import Parity, discretize_operator, parity_from_theta


@pytest.fixture(scope="module")
def default_corrector(default_dirac, default_profile):
    return solve_U1(build_G1(default_dirac, default_profile), default_dirac)


@pytest.fixture(scope="module")
def free_corrector(free_dirac, free_profile):
    return solve_U1(build_G1(free_dirac, free_profile), free_dirac)


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

    def test_support_overflow_rejected(self, default_dirac, default_profile):
        x = np.array([10.0 * default_profile.y_max])
        with pytest.raises(ValueError, match="enlarge"):
            build_U0(default_dirac, default_profile, 1.0 - 1e-9, x)


class TestBuildG1:
    def test_ten_terms(self, default_dirac, default_profile):
        forcing = build_G1(default_dirac, default_profile)
        assert forcing.x_profiles.shape[0] == 10
        assert len(forcing.y_factors) == 10

    def test_free_profiles_are_sparse(self, free_dirac, free_profile):
        forcing = build_G1(free_dirac, free_profile)
        for coeffs in forcing.x_profiles:
            assert int(np.sum(np.abs(coeffs) > 1e-14)) <= 3

    def test_extended_cutoff(self, default_dirac, default_profile):
        forcing = build_G1(default_dirac, default_profile)
        assert forcing.cutoff_ext.M == 3 * default_dirac.cutoff.M + 2
        assert extended_cutoff(default_dirac.cutoff).M == forcing.cutoff_ext.M

    @pytest.mark.parametrize("lattice", ["default", "free"])
    def test_rows_match_their_physical_definition(self, request, lattice):
        """Each x-profile, summed at sample points, against its definition.

        Phi-, Phi+ and W are sampled directly and multiplied pointwise;
        dx Phi comes from fourth-order differences of the sampled carrier.
        """
        dirac = request.getfixturevalue(f"{lattice}_dirac")
        profile = request.getfixturevalue(f"{lattice}_profile")
        mu = 0.03  # a detuning, so mu# enters the (mu# - W) rows
        detuned = dataclasses.replace(
            profile, params=dataclasses.replace(profile.params, mu_sharp=mu)
        )
        forcing = build_G1(dirac, detuned)
        x = np.linspace(-1.3, 2.1, 37)
        rows = fourier_eval(forcing.x_profiles, np.pi, x)
        pm, pp = (fourier_eval(g, np.pi, x) for g in (dirac.g1, dirac.g2))
        W = dirac.pot_W(x)
        s = 1e-3
        weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * s)
        stencil = x + s * np.arange(-2.0, 3.0)[:, None]
        dpm, dpp = (weights @ fourier_eval(g, np.pi, stencil) for g in (dirac.g1, dirac.g2))
        expect = [
            (dpm, 1e-8),
            (dpp, 1e-8),
            ((mu - W) * pm, 1e-13),
            ((mu - W) * pp, 1e-13),
            (np.abs(pm) ** 2 * pm, 1e-13),
            (np.abs(pp) ** 2 * pp, 1e-13),
            (pm**2 * np.conj(pp), 1e-13),
            (pp**2 * np.conj(pm), 1e-13),
            (2.0 * np.abs(pm) ** 2 * pp, 1e-13),
            (2.0 * np.abs(pp) ** 2 * pm, 1e-13),
        ]
        for j, (row, (want, tol)) in enumerate(zip(rows, expect)):
            err = np.max(np.abs(row - want)) / np.max(np.abs(want))
            assert err < tol, (j, err)

    def test_W_beyond_the_extended_cutoff_rejected(self, pot_free, free_profile):
        """M = 16: the free carriers sit at modes 0 and -1, M_ext = 50."""

        def lattice(j):
            W = PeriodicPotential({1: 1.0, j: 0.5}, ParityClass.ODD_INDEX)
            return certify_dirac_point(pot_free, W, FourierCutoff(16))

        build_G1(lattice(49), free_profile)  # W Phi+ reaches mode -50
        with pytest.raises(RuntimeError, match="extended cutoff"):
            build_G1(lattice(51), free_profile)

    def test_terms_vanish_with_the_envelope(self, default_dirac, default_profile):
        """Far in the tail every slow factor is at the decay floor."""
        forcing = build_G1(default_dirac, default_profile)
        y = np.array([default_profile.y_max])
        psi, dpsi = _spinor(default_profile.params, *default_profile.evaluate(y))
        for g in forcing.y_factors:
            assert abs(g(psi, dpsi)[0]) < 1e-5


class TestSolvability:
    def test_converged_envelope_projects_to_zero(
        self, default_dirac, default_profile
    ):
        forcing = build_G1(default_dirac, default_profile)
        rel = solvability_check(forcing, default_profile.y_grid[::10])
        assert rel <= 1e-6

    def test_perturbed_envelope_detected(
        self, default_dirac, default_profile, detuned_profile
    ):
        forcing = build_G1(default_dirac, detuned_profile)
        rel = solvability_check(forcing, default_profile.y_grid[::10])
        assert 1e-5 < rel < 1e-1

    def test_fail_tol_raises_with_location(
        self, default_dirac, default_profile, detuned_profile
    ):
        forcing = build_G1(default_dirac, detuned_profile)
        with pytest.raises(RuntimeError, match="y="):
            solvability_check(
                forcing, default_profile.y_grid[::10], fail_tol=1e-6
            )


    def test_offset_envelope_raises(self, default_dirac, default_profile):
        """u + 1e-3 breaks the spinor system; dy Psi must not hide it."""
        def shifted(y):
            u, v = default_profile.evaluate(y)
            return u + 1e-3, v

        offset = copy.copy(default_profile)
        offset.evaluate = shifted
        forcing = build_G1(default_dirac, offset)
        with pytest.raises(RuntimeError, match="kernel projection"):
            solvability_check(
                forcing, default_profile.y_grid[::10], fail_tol=1e-6
            )


class TestSolveU1:
    def _forcing_from_vector(self, dirac, profile, vec):
        """The one-term forcing vec(x) * 1 on the carriers of dirac."""
        return dataclasses.replace(
            build_G1(dirac, profile),
            x_profiles=np.stack([vec.astype(complex)]),
            y_factors=[lambda psi, dpsi: np.ones_like(psi)],
        )

    def test_pure_kernel_forcing_gives_zero(self, default_dirac, default_profile):
        from diracsoliton.ansatz import _pad_modes

        M, Me = default_dirac.cutoff.M, extended_cutoff(default_dirac.cutoff).M
        vec = _pad_modes(default_dirac.g1.astype(complex), M, Me)
        forcing = self._forcing_from_vector(default_dirac, default_profile, vec)
        sol = solve_U1(forcing, default_dirac)
        assert np.max(np.abs(sol.x_solutions)) < 1e-12

    def test_eigenvector_identity(self, default_dirac, default_profile):
        Me = extended_cutoff(default_dirac.cutoff).M
        A = assemble_coefficient_matrix(default_dirac.pot_V.coeffs, np.pi, Me)
        evals, evecs = np.linalg.eigh(A)
        mu = default_dirac.mu_star
        third = np.where(np.abs(evals - mu) > 1e-6 * (1 + abs(mu)))[0][2]
        vec = (evals[third] - mu) * evecs[:, third]
        forcing = self._forcing_from_vector(default_dirac, default_profile, vec)
        sol = solve_U1(forcing, default_dirac)
        assert np.max(np.abs(sol.x_solutions[0] - evecs[:, third])) < 1e-9

    def test_kernel_orthogonality(self, default_dirac, default_profile):
        from diracsoliton.ansatz import _pad_modes

        forcing = build_G1(default_dirac, default_profile)
        sol = solve_U1(forcing, default_dirac)  # raises on a residual above 1e-10
        M, Me = default_dirac.cutoff.M, forcing.cutoff_ext.M
        for g in (default_dirac.g1, default_dirac.g2):
            gp = _pad_modes(g.astype(complex), M, Me)
            assert np.max(np.abs(sol.x_solutions @ np.conj(gp))) <= 1e-10

    def test_displaced_crossing_energy_detected(self, default_dirac, default_profile):
        forcing = build_G1(default_dirac, default_profile)
        shifted = dataclasses.replace(default_dirac, mu_star=default_dirac.mu_star + 5e-4)
        with pytest.raises(RuntimeError, match="double eigenvalue"):
            solve_U1(forcing, shifted)


class TestAssemble:
    def test_delta_zero_rejected(self, default_dirac, default_profile, default_corrector):
        with pytest.raises(ValueError, match="delta"):
            assemble_udelta(
                default_dirac, default_profile, default_corrector, 0.0, 2000.0, 1 / 64
            )

    def test_small_domain_rejected(self, default_dirac, default_profile, default_corrector):
        with pytest.raises(ValueError, match="decay floor"):
            assemble_udelta(
                default_dirac, default_profile, default_corrector, 0.1, 100.0, 1 / 64
            )

    def test_support_checked_at_the_last_grid_point(
        self, free_dirac, free_profile, free_corrector, monkeypatch
    ):
        """delta (n - 1/2) h against y_max, before the grid is allocated."""
        h, delta = 1 / 64, 0.5
        L = free_profile.y_max / delta  # last point L - h/2 or closer: inside
        assemble_udelta(free_dirac, free_profile, free_corrector, delta, L, h)
        grids = []
        monkeypatch.setattr(ansatz, "staggered_grid", lambda *a: grids.append(a))
        with pytest.raises(ValueError, match="shrink L"):
            assemble_udelta(free_dirac, free_profile, free_corrector, delta, L + h, h)
        assert grids == []

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
            L = 10.5 * ell / delta
            with_c = assemble_udelta(free_dirac, free_profile, free_corrector, delta, L, h)
            without = np.sqrt(delta) * build_U0(free_dirac, free_profile, delta, with_c.x_grid)
            diffs.append(np.sqrt(h * np.sum((with_c.samples - without) ** 2)))
        # difference is sqrt(delta)*delta*U1 with U1-norm ~ delta^{-1/2}: O(delta)
        assert diffs[1] / diffs[0] == pytest.approx(0.5, rel=0.25)

    def test_field_even(self, free_dirac, free_profile, free_corrector):
        ell = 1.0 / free_profile.params.decay_rate
        L, h = 10.5 * ell / 0.1, 1 / 64
        fld = assemble_udelta(free_dirac, free_profile, free_corrector, 0.1, L, h)
        mirror, _, _ = evaluate_udelta(
            free_dirac, free_profile, free_corrector, 0.1, -fld.x_grid
        )
        assert np.max(np.abs(fld.samples - mirror)) < 1e-11
        # the grid is the Newton solver's staggered half-line
        assert np.array_equal(fld.x_grid, staggered_grid(L, h))

    def test_evaluate_on_custom_grid(self, free_dirac, free_profile, free_corrector):
        x = np.linspace(0.25, 30.0, 500)
        samples, u0, u1 = evaluate_udelta(free_dirac, free_profile, free_corrector, 0.1, x)
        assert np.array_equal(u0, build_U0(free_dirac, free_profile, 0.1, x))
        assert np.allclose(samples, np.sqrt(0.1) * (u0 + 0.1 * u1))


def _free_operator(fld, pot_V, pot_W, parity=Parity.EVEN):
    return discretize_operator(pot_V, pot_W, fld.delta, fld.mu_delta, fld.x_grid, parity)


class TestResidual:
    def test_zero_field(self, pot_free, pot_w):
        x = staggered_grid(1.0, 1 / 64)
        fld = TwoScaleField(
            delta=0.1,
            mu_delta=1.0,
            x_grid=x,
            samples=np.zeros_like(x),
            u0_samples=np.zeros_like(x),
        )
        assert residual_norm(fld, _free_operator(fld, pot_free, pot_w)) == 0.0

    def test_manufactured_linear_mode(self, pot_free, pot_w):
        """A small plane-wave probe leaves only discretization residue."""
        h = 1 / 128
        x = staggered_grid(16.0, h)
        q = 3.0
        eps = 1e-4
        fld = TwoScaleField(
            delta=0.0,
            mu_delta=q**2,
            x_grid=x,
            samples=eps * np.cos(q * x),
            u0_samples=eps * np.cos(q * x),
        )
        # residual = FD error O(h^4 q^6 eps) plus the cubic term O(eps^3)
        assert residual_norm(fld, _free_operator(fld, pot_free, pot_w)) < 1e-8

    def test_coarse_grid_rejected(self, pot_free, pot_w):
        x = staggered_grid(1.0, 1 / 32)
        fld = TwoScaleField(
            delta=0.1,
            mu_delta=1.0,
            x_grid=x,
            samples=np.zeros_like(x),
            u0_samples=np.zeros_like(x),
        )
        with pytest.raises(ValueError, match="coarse"):
            residual_norm(fld, _free_operator(fld, pot_free, pot_w))

    def test_residual_order_free_example(
        self, free_dirac, free_profile, free_corrector, pot_free, pot_w
    ):
        h = 1 / 128
        ell = 1.0 / free_profile.params.decay_rate
        deltas = [0.2, 0.1]
        fields = [
            assemble_udelta(free_dirac, free_profile, free_corrector, d, 10.5 * ell / d, h)
            for d in deltas
        ]
        norms = [residual_norm(f, _free_operator(f, pot_free, pot_w)) for f in fields]
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
        parity = parity_from_theta(dirac.theta_sharp)
        delta, h = 0.1, 1 / 64
        L = 10.5 / (profile.params.decay_rate * delta)
        corrector = solve_U1(build_G1(dirac, profile), dirac)
        fld = assemble_udelta(dirac, profile, corrector, delta, L, h)
        got = residual_norm(fld, _free_operator(fld, pot_free, W, parity))

        sign = 1.0 if parity is Parity.EVEN else -1.0
        x = np.concatenate([-fld.x_grid[::-1], fld.x_grid])
        u = np.concatenate([sign * fld.samples[::-1], fld.samples])
        stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h**2)
        d2 = np.convolve(u, stencil, mode="valid")[3:-3]
        inner = slice(5, len(u) - 5)
        pot = pot_free(x[inner]) + delta * W(x[inner]) - fld.mu_delta
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
