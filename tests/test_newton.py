import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

from diracsoliton import ParityClass, PeriodicPotential, newton
from diracsoliton.ansatz import TwoScaleField, assemble_udelta, build_U0, staggered_grid
from diracsoliton.cli import Pipeline, load_config
from diracsoliton.newton import (
    DiscreteOperator,
    NewtonConfig,
    Parity,
    SolitonField,
    discretize_operator,
    error_vs_ansatz,
    jacobian_min_eig,
    newton_solve,
    parity_from_theta,
)


@pytest.fixture(scope="module")
def free_soliton(free_dirac, free_profile):
    delta = 0.1
    ell = 1.0 / free_profile.params.decay_rate
    x = staggered_grid(10.5 * ell / delta, 1 / 128)
    op = discretize_operator(
        free_dirac.pot_V, free_dirac.pot_W, delta, free_dirac.mu_star, x, Parity.EVEN
    )
    guess = np.sqrt(delta) * build_U0(free_dirac, free_profile, delta, x)
    sol = newton_solve(op, delta, free_dirac.mu_star, guess, NewtonConfig())
    return op, sol


class TestGrid:
    def test_staggered_values(self):
        x = staggered_grid(1.0, 0.25)
        assert np.allclose(x, [0.125, 0.375, 0.625, 0.875])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            staggered_grid(1.0, 0.0)
        with pytest.raises(ValueError):
            staggered_grid(0.1, 0.25)

    def test_parity_from_theta(self):
        assert parity_from_theta(0.4) is Parity.EVEN
        assert parity_from_theta(-0.4) is Parity.ODD


class TestDiscreteOperator:
    def _free_op(self, parity, h=1 / 128, L=4.0):
        x = staggered_grid(L, h)
        empty = PeriodicPotential({}, ParityClass.EVEN_INDEX)
        return discretize_operator(empty, empty, 0.0, 0.0, x, parity)

    def test_fourth_order_on_even_mode(self):
        op = self._free_op(Parity.EVEN)
        q = 2.0 * np.pi
        u = np.cos(q * op.x_grid)
        out = op.apply(u)
        err = np.abs(out[:-2] - q**2 * u[:-2])
        # 4th-order stencil: truncation about h^4 q^6 / 90
        assert np.max(err) < 2.0 * op.h**4 * q**6 / 90.0

    def test_fourth_order_on_odd_mode(self):
        op = self._free_op(Parity.ODD)
        q = 2.0 * np.pi
        u = np.sin(q * op.x_grid)
        out = op.apply(u)
        err = np.abs(out[:-2] - q**2 * u[:-2])
        assert np.max(err) < 2.0 * op.h**4 * q**6 / 90.0

    def test_mirror_fold_beats_one_sided_error(self):
        """The folded first rows are as accurate as the interior ones."""
        op = self._free_op(Parity.EVEN)
        q = np.pi
        u = np.cos(q * op.x_grid)
        out = op.apply(u)
        assert abs(out[0] - q**2 * u[0]) < 1e-4
        assert abs(out[1] - q**2 * u[1]) < 1e-4

    def test_symmetry(self):
        op = self._free_op(Parity.EVEN, L=2.0)
        rng = np.random.default_rng(3)
        a = rng.normal(size=len(op.x_grid))
        b = rng.normal(size=len(op.x_grid))
        assert a @ op.apply(b) == pytest.approx(b @ op.apply(a), rel=1e-12)

    def test_solve_shifted_inverts_apply(self):
        op = self._free_op(Parity.ODD, L=2.0)
        rng = np.random.default_rng(5)
        rhs = rng.normal(size=len(op.x_grid))
        shift = np.full(len(op.x_grid), 7.0)
        w = op.solve_shifted(shift, rhs)
        assert np.max(np.abs(op.apply(w) + shift * w - rhs)) < 1e-8

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            self._free_op(Parity.EVEN, h=1 / 32)

    def test_unstaggered_grid_rejected(self, pot_free):
        x = np.arange(1, 200) / 128.0
        with pytest.raises(ValueError, match="staggered"):
            discretize_operator(pot_free, pot_free, 0.0, 0.0, x, Parity.EVEN)

    def test_nonuniform_grid_rejected(self, pot_free):
        x = staggered_grid(2.0, 1 / 128)
        x[50] += 1e-6
        with pytest.raises(ValueError, match="uniform"):
            discretize_operator(pot_free, pot_free, 0.0, 0.0, x, Parity.EVEN)

    def test_long_grid_with_non_dyadic_spacing_accepted(self, pot_free):
        """(i + 1/2) h rounds about 1e-13 off h at x = 900; that is uniform."""
        x = staggered_grid(900.0, 0.01)
        op = discretize_operator(pot_free, pot_free, 0.0, 0.0, x, Parity.EVEN)
        assert op.h == pytest.approx(0.01, rel=1e-12)
        x[len(x) // 2 :] += 1e-8
        with pytest.raises(ValueError, match="uniform"):
            discretize_operator(pot_free, pot_free, 0.0, 0.0, x, Parity.EVEN)

    def test_potential_enters_diagonal(self, pot_v, pot_w):
        x = staggered_grid(2.0, 1 / 128)
        op = discretize_operator(pot_v, pot_w, 0.1, 3.0, x, Parity.EVEN)
        base = discretize_operator(pot_v, pot_w, 0.0, 0.0, x, Parity.EVEN)
        expect = 0.1 * pot_w(x) - 3.0
        assert np.allclose(op.diag - base.diag, expect)


class TestNewton:
    def test_converges_fast(self, free_soliton):
        _, sol = free_soliton
        assert len(sol.newton_history) <= 8
        assert sol.newton_history[-1] <= 1e-10

    def test_quadratic_tail(self, free_soliton):
        _, sol = free_soliton
        hist = sol.newton_history
        assert hist[-1] < 1e-3 * hist[-2]

    def test_soliton_tail_small(self, free_soliton):
        _, sol = free_soliton
        # domain is 10.5 decay lengths: tail about exp(-10.5) of the peak
        assert abs(sol.samples[-1]) < 1e-4 * np.max(np.abs(sol.samples))

    def test_restart_from_solution_is_immediate(self, free_soliton):
        op, sol = free_soliton
        again = newton_solve(op, sol.delta, sol.mu_delta, sol.samples, NewtonConfig())
        assert len(again.newton_history) == 1

    def test_zero_guess_rejected(self, free_soliton):
        op, sol = free_soliton
        with pytest.raises(RuntimeError, match="trivial"):
            newton_solve(
                op, sol.delta, sol.mu_delta, np.zeros_like(sol.samples), NewtonConfig()
            )

    def test_non_finite_guess_is_divergence(self, free_soliton):
        op, sol = free_soliton
        guess = sol.samples.copy()
        guess[5] = np.nan
        with pytest.raises(RuntimeError, match="divergence"):
            newton_solve(op, sol.delta, sol.mu_delta, guess, NewtonConfig())

    def test_wrong_grid_length_rejected(self, free_soliton):
        op, sol = free_soliton
        with pytest.raises(ValueError, match="grid"):
            newton_solve(op, sol.delta, sol.mu_delta, sol.samples[:-5], NewtonConfig())

    def test_unreachable_tolerance_reported(self, free_soliton):
        op, sol = free_soliton
        cfg = NewtonConfig(tol=1e-18, max_iters=6)
        with pytest.raises(RuntimeError, match="did not reach"):
            newton_solve(op, sol.delta, sol.mu_delta, sol.samples, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iters=0)


class TestJacobian:
    def test_min_eig_positive_and_small(self, free_soliton):
        op, sol = free_soliton
        lam = jacobian_min_eig(op, sol.samples)
        # gap coefficient protects the soliton at scale delta * theta
        assert 0.0 < lam < 1.0

    def test_deterministic(self, free_soliton):
        op, sol = free_soliton
        a = jacobian_min_eig(op, sol.samples)
        b = jacobian_min_eig(op, sol.samples)
        assert a == b

    def test_rayleigh_quotient_is_attained(self, free_soliton):
        """The reported value is an actual eigenvalue, not just a bound."""
        op, sol = free_soliton
        lam = jacobian_min_eig(op, sol.samples)
        shift = -3.0 * sol.samples**2
        v = np.cos(0.37 * np.arange(len(sol.samples)))
        v += sol.samples / (1.0 + np.max(np.abs(sol.samples)))
        for _ in range(80):
            v = op.solve_shifted(shift, v)
            v /= np.linalg.norm(v)
        resid = op.apply(v) + shift * v - lam * v
        assert np.linalg.norm(resid) < 1e-6

    def test_clustered_spectrum_nearest_zero(self):
        """Two eigenvalues 1% apart in magnitude: the nearer one is returned."""
        n = 400
        diag = np.concatenate([[0.0100, -0.0101], np.linspace(1.0, 5.0, n - 2)])
        op = DiscreteOperator(
            x_grid=staggered_grid(n / 128, 1 / 128),
            h=1 / 128,
            diag=diag,
            off1=np.zeros(n - 1),
            off2=np.zeros(n - 2),
            parity=Parity.EVEN,
        )
        assert jacobian_min_eig(op, np.zeros(n)) == pytest.approx(0.01, abs=1e-12)

    def test_tolerance_matches_machine_precision_solve(self):
        """The Lanczos stop at Ritz residual 1e-8 |theta| leaves lambda where
        a machine-precision solve (ARPACK, tol = 0) puts it.

        The eigenvalue error is quadratic in the Ritz residual, so what is
        left is the rounding of the two factorizations (banded LU here,
        SuperLU in the oracle).  The soliton Jacobian of the CLI tests'
        free lattice (FREE_CFG in test_cli.py) at delta = 0.2, on the grid
        the soliton command uses.
        """
        delta = 0.2
        free_cfg = {"V": [], "W": [[1, 1.0]], "M": 16, "h": 1 / 64, "deltas": [delta]}
        run = Pipeline(load_config(None, free_cfg))
        data, profile = run.dirac, run.profile
        L = min(18.5 / run.params.decay_rate, 0.995 * profile.y_max) / delta
        fld = assemble_udelta(data, profile, run.corrector, delta, L, run.cfg.h)
        op = discretize_operator(
            data.pot_V, data.pot_W, delta, fld.mu_delta, fld.x_grid,
            parity_from_theta(data.theta_sharp),
        )
        u = newton_solve(op, delta, fld.mu_delta, fld.samples, NewtonConfig()).samples
        J = diags(
            [op.off2, op.off1, op.diag - 3.0 * u**2, op.off1, op.off2],
            [-2, -1, 0, 1, 2],
            format="csc",
        )
        v0 = np.cos(0.37 * np.arange(len(u))) + u / (1.0 + np.max(np.abs(u)))
        (exact,) = eigsh(J, k=1, sigma=0.0, v0=v0, tol=0, return_eigenvectors=False)
        assert jacobian_min_eig(op, u) == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dense_spectrum(self, seed):
        """Small symmetric indefinite pentadiagonal Jacobians against a dense
        eigensolve; the two eigenvalues nearest 0 differ by 1% in magnitude."""
        rng = np.random.default_rng(seed)
        while True:
            n = int(rng.integers(5, 201))
            op = DiscreteOperator(
                x_grid=staggered_grid(n / 64, 1 / 64),
                h=1 / 64,
                diag=rng.uniform(-3.0, 3.0, n),
                off1=rng.uniform(-1.0, 1.0, n - 1),
                off2=rng.uniform(-1.0, 1.0, n - 2),
                parity=(Parity.EVEN, Parity.ODD)[seed % 2],
            )
            u = rng.uniform(-1.0, 1.0, n)
            J = np.diag(op.diag - 3.0 * u**2)
            for k, off in ((1, op.off1), (2, op.off2)):
                J += np.diag(off, k) + np.diag(off, -k)
            lam = np.linalg.eigvalsh(J)
            lam = lam[np.argsort(np.abs(lam))]
            if abs(lam[1]) >= 1.01 * abs(lam[0]):
                break
        assert jacobian_min_eig(op, u) == pytest.approx(lam[0], rel=1e-10, abs=0.0)

    def test_singular_jacobian_raises(self):
        """Row and column 17 of the Jacobian are zero: a zero pivot."""
        n, row = 60, 17
        empty = PeriodicPotential({}, ParityClass.EVEN_INDEX)
        x = staggered_grid(n / 64, 1 / 64)
        op = discretize_operator(empty, empty, 0.0, -1.0, x, Parity.EVEN)
        op.diag[row] = 0.0
        op.off1[row - 1 : row + 1] = 0.0
        op.off2[row - 2] = op.off2[row] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            op.solve_shifted(np.zeros(n), np.ones(n))
        with pytest.raises(RuntimeError, match=r"jacobian_min_eig: N = 60, 0 steps"):
            jacobian_min_eig(op, np.zeros(n))

    def test_step_cap_raises(self, monkeypatch):
        n = 400
        op = DiscreteOperator(
            x_grid=staggered_grid(n / 128, 1 / 128),
            h=1 / 128,
            diag=np.linspace(0.01, 5.0, n),
            off1=np.zeros(n - 1),
            off2=np.zeros(n - 2),
            parity=Parity.EVEN,
        )
        monkeypatch.setattr(newton, "_LANCZOS_MAX_STEPS", 2)
        with pytest.raises(RuntimeError, match=r"jacobian_min_eig: N = 400, .* 2 Lanczos"):
            jacobian_min_eig(op, np.zeros(n))


def _leading_order(sol, dirac, profile):
    """The two-scale field U0 alone, on the solver grid."""
    u0 = build_U0(dirac, profile, sol.delta, sol.x_grid)
    return TwoScaleField(
        delta=sol.delta,
        mu_delta=sol.mu_delta,
        x_grid=sol.x_grid,
        samples=np.sqrt(sol.delta) * u0,
        u0_samples=u0,
    )


class TestErrorVsAnsatz:
    def test_zero_for_ansatz_itself(self, free_soliton, free_dirac, free_profile):
        op, sol = free_soliton
        a = np.sqrt(sol.delta) * build_U0(free_dirac, free_profile, sol.delta, op.x_grid)
        fake = SolitonField(
            delta=sol.delta,
            mu_delta=sol.mu_delta,
            x_grid=op.x_grid,
            samples=a,
            parity=Parity.EVEN,
        )
        l2, h2 = error_vs_ansatz(fake, _leading_order(fake, free_dirac, free_profile))
        assert l2 == 0.0 and h2 == 0.0

    def test_l2_below_h2(self, free_soliton, free_dirac, free_profile):
        _, sol = free_soliton
        l2, h2 = error_vs_ansatz(sol, _leading_order(sol, free_dirac, free_profile))
        assert 0.0 < l2 <= h2
        # leading-order mismatch is O(delta) relative to the O(1) norms
        assert l2 < 1.0
