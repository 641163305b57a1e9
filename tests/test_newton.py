import tracemalloc

import numpy as np
import pytest
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

from diracsoliton import ParityClass, PeriodicPotential, _lapack, newton
from diracsoliton.ansatz import TwoScaleField, assemble_udelta, build_U0
from diracsoliton.cli import Pipeline, load_config
from diracsoliton.newton import (
    DiscreteOperator,
    discretize_operator,
    error_vs_ansatz,
    jacobian_min_eig,
    newton_solve,
    staggered_grid,
)

TOL, MAX_ITERS = 1e-10, 25  # RunConfig's newton_tol and newton_max_iters defaults


@pytest.fixture(scope="module")
def free_soliton(free_dirac, free_profile):
    delta = 0.1
    ell = 1.0 / free_profile.params.decay_rate
    op = discretize_operator(
        free_dirac.pot_V, free_dirac.pot_W, delta, free_dirac.mu_star,
        10.5 * ell / delta, 1 / 128, 1.0,
    )
    guess = np.sqrt(delta) * build_U0(free_dirac, free_profile, delta, op.x_grid)
    sol = newton_solve(op, guess, TOL, MAX_ITERS)
    return op, sol


def _cli_soliton(cfg: dict):
    """The pipeline of cfg, and the operator and Newton soliton of its one
    delta on the grid the soliton command uses."""
    run = Pipeline(load_config(None, cfg))
    data, (delta,) = run.dirac, run.deltas
    op = discretize_operator(
        data.pot_V, data.pot_W, delta, run.mu_delta(delta), run.domain(delta), run.cfg.h,
        data.theta_sharp,
    )
    fld = assemble_udelta(data, run.profile, run.corrector, delta, op.x_grid)
    return run, op, newton_solve(op, fld.samples, TOL, MAX_ITERS).samples


@pytest.fixture(scope="module")
def free_cfg_soliton():
    """Operator, Newton soliton and Jacobian shift delta nu of the CLI
    tests' free lattice (FREE_CFG in test_cli.py) at delta = 0.2, on the
    grid the soliton command uses."""
    delta = 0.2
    free_cfg = {"V": [], "W": [[1, 1.0]], "M": 16, "h": 1 / 64, "deltas": [delta]}
    run, op, u = _cli_soliton(free_cfg)
    return op, u, delta * run.kernel.nu_restricted


class TestGrid:
    def test_staggered_values(self):
        x = staggered_grid(1.0, 0.25)
        assert np.allclose(x, [0.125, 0.375, 0.625, 0.875])

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            staggered_grid(1.0, 0.0)
        with pytest.raises(ValueError):
            staggered_grid(0.1, 0.25)


class TestDiscreteOperator:
    def _free_op(self, theta_sharp, h=1 / 128, L=4.0):
        empty = PeriodicPotential({}, ParityClass.EVEN_INDEX)
        return discretize_operator(empty, empty, 0.0, 0.0, L, h, theta_sharp)

    def test_owns_grid_spacing_and_parity(self, pot_free):
        """The operator builds staggered_grid(L, h) itself, keeps h as given
        and folds the mirror image at 0, even for theta# > 0 and odd
        otherwise, into its first rows."""
        L, h = 900.0, 1 / 96
        even = discretize_operator(pot_free, pot_free, 0.0, 0.0, L, h, 0.4)
        odd = discretize_operator(pot_free, pot_free, 0.0, 0.0, L, h, -0.4)
        assert np.array_equal(even.x_grid, staggered_grid(L, h))
        assert even.h == h
        # the ghost values +-u(h/2), +-u(3h/2) add +-c1 to diag[0], +-c2 to off1[0]
        c1, c2 = -4.0 / (3.0 * h**2), 1.0 / (12.0 * h**2)
        for op, sign in ((even, 1.0), (odd, -1.0)):
            assert op.diag[0] - op.diag[1] == pytest.approx(sign * c1, rel=1e-12)
            assert op.off1[0] - op.off1[1] == pytest.approx(sign * c2, rel=1e-12)
            assert np.array_equal(op.diag[1:], even.diag[1:])
            assert np.array_equal(op.off1[1:], even.off1[1:])

    def test_factorization_in_place(self):
        """dgbtrf factors the Fortran-ordered band in place: the traced peak
        stays within 1.25 times the 7 n doubles of the band, where a
        C-ordered band is first copied (about twice that)."""
        n = 200_000
        rng = np.random.default_rng(0)
        op = DiscreteOperator(
            x_grid=np.zeros(n),
            h=1 / 64,
            potential=np.zeros(n),
            diag=rng.uniform(4.0, 6.0, n),
            off1=rng.uniform(-1.0, 1.0, n - 1),
            off2=rng.uniform(-1.0, 1.0, n - 2),
        )
        shift = np.zeros(n)
        tracemalloc.start()
        try:
            op.factor_shifted(shift)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 7 * n * 8

    def test_fourth_order_on_even_mode(self):
        op = self._free_op(1.0)
        q = 2.0 * np.pi
        u = np.cos(q * op.x_grid)
        out = op.apply(u)
        err = np.abs(out[:-2] - q**2 * u[:-2])
        # 4th-order stencil: truncation about h^4 q^6 / 90
        assert np.max(err) < 2.0 * op.h**4 * q**6 / 90.0

    def test_fourth_order_on_odd_mode(self):
        op = self._free_op(-1.0)
        q = 2.0 * np.pi
        u = np.sin(q * op.x_grid)
        out = op.apply(u)
        err = np.abs(out[:-2] - q**2 * u[:-2])
        assert np.max(err) < 2.0 * op.h**4 * q**6 / 90.0

    def test_mirror_fold_beats_one_sided_error(self):
        """The folded first rows are as accurate as the interior ones."""
        op = self._free_op(1.0)
        q = np.pi
        u = np.cos(q * op.x_grid)
        out = op.apply(u)
        assert abs(out[0] - q**2 * u[0]) < 1e-4
        assert abs(out[1] - q**2 * u[1]) < 1e-4

    def test_symmetry(self):
        op = self._free_op(1.0, L=2.0)
        rng = np.random.default_rng(3)
        a = rng.normal(size=len(op.x_grid))
        b = rng.normal(size=len(op.x_grid))
        assert a @ op.apply(b) == pytest.approx(b @ op.apply(a), rel=1e-12)

    def test_solve_shifted_inverts_apply(self):
        op = self._free_op(-1.0, L=2.0)
        rng = np.random.default_rng(5)
        rhs = rng.normal(size=len(op.x_grid))
        shift = np.full(len(op.x_grid), 7.0)
        w = op.solve_shifted(shift, rhs)
        assert np.max(np.abs(op.apply(w) + shift * w - rhs)) < 1e-8

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            self._free_op(1.0, h=1 / 32)

    def test_long_grid_with_non_dyadic_spacing_accepted(self, pot_free):
        """(i + 1/2) h rounds about 1e-13 off h at x = 900; the operator
        keeps the configured h."""
        op = discretize_operator(pot_free, pot_free, 0.0, 0.0, 900.0, 0.01, 1.0)
        assert op.h == pytest.approx(0.01, rel=1e-12)

    def test_potential_enters_diagonal(self, pot_v, pot_w):
        op = discretize_operator(pot_v, pot_w, 0.1, 3.0, 2.0, 1 / 128, 1.0)
        base = discretize_operator(pot_v, pot_w, 0.0, 0.0, 2.0, 1 / 128, 1.0)
        expect = 0.1 * pot_w(op.x_grid) - 3.0
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
        again = newton_solve(op, sol.samples, TOL, MAX_ITERS)
        assert len(again.newton_history) == 1

    def test_zero_guess_rejected(self, free_soliton):
        op, sol = free_soliton
        with pytest.raises(RuntimeError, match="trivial"):
            newton_solve(op, np.zeros_like(sol.samples), TOL, MAX_ITERS)

    def test_non_finite_guess_is_divergence(self, free_soliton):
        op, sol = free_soliton
        guess = sol.samples.copy()
        guess[5] = np.nan
        with pytest.raises(RuntimeError, match="divergence"):
            newton_solve(op, guess, TOL, MAX_ITERS)

    def test_wrong_grid_length_rejected(self, free_soliton):
        op, sol = free_soliton
        with pytest.raises(ValueError, match="grid"):
            newton_solve(op, sol.samples[:-5], TOL, MAX_ITERS)

    def test_unreachable_tolerance_reported(self, free_soliton):
        """One step from a guess 20% off cannot reach the tolerance."""
        op, sol = free_soliton
        with pytest.raises(RuntimeError, match="did not reach"):
            newton_solve(op, 1.2 * sol.samples, 1e-18, 1)

    def test_tolerance_below_rounding_floor_stops_at_it(self, free_soliton):
        """No residual falls below the rounding of A u, 0.22 eps ||A|| ||u||
        measured; a tolerance under it stops at the floor eps ||A|| ||u||."""
        op, sol = free_soliton
        floor = np.finfo(float).eps * op.inf_norm() * op.norm(sol.samples)
        again = newton_solve(op, sol.samples, 1e-18, 6)
        assert len(again.newton_history) == 1
        assert 0.1 * floor < again.newton_history[0] <= floor


class TestJacobian:
    def test_min_eig_positive_and_small(self, free_soliton):
        op, sol = free_soliton
        lam = jacobian_min_eig(op, sol.samples, 0.0)
        # gap coefficient protects the soliton at scale delta * theta
        assert 0.0 < lam < 1.0

    def test_deterministic(self, free_soliton):
        op, sol = free_soliton
        a = jacobian_min_eig(op, sol.samples, 0.0)
        b = jacobian_min_eig(op, sol.samples, 0.0)
        assert a == b

    def test_rayleigh_quotient_is_attained(self, free_soliton):
        """The reported value is an actual eigenvalue, not just a bound."""
        op, sol = free_soliton
        lam = jacobian_min_eig(op, sol.samples, 0.0)
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
            potential=np.zeros(n),
            diag=diag,
            off1=np.zeros(n - 1),
            off2=np.zeros(n - 2),
        )
        assert jacobian_min_eig(op, np.zeros(n), 0.0) == pytest.approx(0.01, abs=1e-12)

    def test_tolerance_matches_machine_precision_solve(self, free_cfg_soliton):
        """The Lanczos stop at Ritz residual 1e-6 |theta|, at the shift
        delta nu, leaves lambda where a machine-precision solve at 0
        (ARPACK, tol = 0) puts it.

        The eigenvalue error is quadratic in the Ritz residual, of order
        1e-12 relative, so what is left is the rounding of the two
        factorizations (banded LU here, SuperLU in the oracle).
        """
        op, u, shift = free_cfg_soliton
        J = diags(
            [op.off2, op.off1, op.diag - 3.0 * u**2, op.off1, op.off2],
            [-2, -1, 0, 1, 2],
            format="csc",
        )
        v0 = np.cos(0.37 * np.arange(len(u))) + u / (1.0 + np.max(np.abs(u)))
        (exact,) = eigsh(J, k=1, sigma=0.0, v0=v0, tol=0, return_eigenvectors=False)
        assert jacobian_min_eig(op, u, shift) == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_stop_rule_solve_count(self, free_cfg_soliton, monkeypatch):
        """Each Lanczos step is one dgbtrs solve on the LU of J - shift I: at
        shift delta nu the 1e-6 stop takes 3-4 of them, against 21 at shift
        0.  Three dgbtrf: that LU and the certificate's two."""
        op, u, shift = free_cfg_soliton
        calls = {"dgbtrs": 0, "dgbtrf": 0}

        def counted(name):
            def call(*args, **kwargs):
                calls[name] += 1
                return getattr(_lapack, name)(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(newton, name, counted(name))
        jacobian_min_eig(op, u, shift)
        assert 0 < calls["dgbtrs"] <= 5
        assert calls["dgbtrf"] <= 3

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_dense_spectrum(self, seed):
        """Small symmetric indefinite pentadiagonal Jacobians against a dense
        eigensolve; the two eigenvalues nearest 0 differ by 1% in magnitude.
        Both at shift 0 and at a shift 0.1% from the eigenvalue, as a
        prediction puts it."""
        rng = np.random.default_rng(seed)
        while True:
            n = int(rng.integers(5, 201))
            op = DiscreteOperator(
                x_grid=staggered_grid(n / 64, 1 / 64),
                h=1 / 64,
                potential=np.zeros(n),
                diag=rng.uniform(-3.0, 3.0, n),
                off1=rng.uniform(-1.0, 1.0, n - 1),
                off2=rng.uniform(-1.0, 1.0, n - 2),
            )
            u = rng.uniform(-1.0, 1.0, n)
            J = np.diag(op.diag - 3.0 * u**2)
            for k, off in ((1, op.off1), (2, op.off2)):
                J += np.diag(off, k) + np.diag(off, -k)
            lam = np.linalg.eigvalsh(J)
            lam = lam[np.argsort(np.abs(lam))]
            if abs(lam[1]) >= 1.01 * abs(lam[0]):
                break
        for shift in (0.0, 1.001 * lam[0]):
            assert jacobian_min_eig(op, u, shift) == pytest.approx(lam[0], rel=1e-10, abs=0.0)

    def test_planted_eigenvalue_nearer_zero_raises(self):
        """An eigenvalue nearer 0 than the one next to the shift, as an edge
        state at a mid-cell cut is: (-r, r) holds two, an even count, and
        the certificate raises.  At the planted eigenvalue it passes."""
        rng = np.random.default_rng(3)
        n = 120
        diag = rng.uniform(1.0, 4.0, n) * rng.choice([-1.0, 1.0], n)
        diag[[40, 80]] = 0.3, -0.02  # the target, and the planted state
        op = DiscreteOperator(
            x_grid=staggered_grid(n / 64, 1 / 64),
            h=1 / 64,
            potential=np.zeros(n),
            diag=diag,
            off1=rng.uniform(-0.05, 0.05, n - 1),
            off2=rng.uniform(-0.05, 0.05, n - 2),
        )
        J = np.diag(op.diag)
        for k, off in ((1, op.off1), (2, op.off2)):
            J += np.diag(off, k) + np.diag(off, -k)
        lam = np.linalg.eigvalsh(J)
        planted, target, rest = lam[np.argsort(np.abs(lam))][:3]
        assert planted < 0.0 < target < abs(rest) / 2.0
        with pytest.raises(newton.UncertifiedEigenvalue, match="parities 1 and 1") as info:
            jacobian_min_eig(op, np.zeros(n), 1.001 * target)
        assert info.value.lam == pytest.approx(target, rel=1e-10)
        assert jacobian_min_eig(op, np.zeros(n), 0.0) == pytest.approx(planted, rel=1e-10)

    @pytest.mark.parametrize(
        "cfg,theta_sign",
        [
            ({"V": [[2, 20.0]], "W": [[1, 1.0]], "M": 32, "deltas": [0.4], "L": 900.0}, 1.0),
            (
                {"V": [], "W": [[1, -1.0]], "M": 16, "mu_sharp": 0.1, "deltas": [0.2],
                 "L": 1400.0},
                -1.0,
            ),
        ],
        ids=["default_lattice", "free_minus_cos"],
    )
    def test_shift_has_the_eigenvalue_sign(self, cfg, theta_sign):
        """delta nu, nu the signed eigenvalue on Y nearest 0, has the sign of
        the Jacobian's eigenvalue nearest 0 on both parities: theta# > 0 on
        the default lattice, theta# < 0 on the free lattice with
        W = -cos 2 pi x.  At that shift lambda is the one found at 0."""
        run, op, u = _cli_soliton(dict(cfg, h=1 / 64))
        (delta,) = run.deltas
        assert np.sign(run.dirac.theta_sharp) == theta_sign
        nu = run.kernel.nu_restricted
        lam = jacobian_min_eig(op, u, 0.0)
        assert np.sign(nu) == np.sign(lam)
        assert abs(lam / delta - nu) <= 1e-2 * abs(nu)
        assert jacobian_min_eig(op, u, delta * nu) == pytest.approx(lam, rel=1e-11, abs=0.0)

    def test_singular_jacobian_raises(self):
        """Row and column 17 of the Jacobian are zero: a zero pivot."""
        n, row = 60, 17
        empty = PeriodicPotential({}, ParityClass.EVEN_INDEX)
        op = discretize_operator(empty, empty, 0.0, -1.0, n / 64, 1 / 64, 1.0)
        op.diag[row] = 0.0
        op.off1[row - 1 : row + 1] = 0.0
        op.off2[row - 2] = op.off2[row] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            op.solve_shifted(np.zeros(n), np.ones(n))
        with pytest.raises(RuntimeError, match=r"jacobian_min_eig: N = 60, 0 steps"):
            jacobian_min_eig(op, np.zeros(n), 0.0)

    def test_step_cap_raises(self, monkeypatch):
        n = 400
        op = _diagonal_operator(n)
        monkeypatch.setattr(newton, "_LANCZOS_MAX_STEPS", 2)
        with pytest.raises(RuntimeError, match=r"jacobian_min_eig: N = 400, .* 2 Lanczos"):
            jacobian_min_eig(op, np.zeros(n), 0.0)


def _diagonal_operator(n: int) -> DiscreteOperator:
    """A Jacobian with spread eigenvalues 0.01..5 that Lanczos needs many steps for."""
    return DiscreteOperator(
        x_grid=staggered_grid(n / 128, 1 / 128),
        h=1 / 128,
        potential=np.zeros(n),
        diag=np.linspace(0.01, 5.0, n),
        off1=np.zeros(n - 1),
        off2=np.zeros(n - 2),
    )


def _leading_order(op, delta, dirac, profile):
    """The two-scale field U0 alone, on the solver grid."""
    u0 = build_U0(dirac, profile, delta, op.x_grid)
    return TwoScaleField(
        delta=delta,
        x_grid=op.x_grid,
        samples=np.sqrt(delta) * u0,
        u0_samples=u0,
    )


class TestErrorVsAnsatz:
    def test_zero_for_ansatz_itself(self, free_soliton, free_dirac, free_profile):
        op, _ = free_soliton
        ansatz = _leading_order(op, 0.1, free_dirac, free_profile)
        l2, h2 = error_vs_ansatz(op, ansatz.samples, ansatz)
        assert l2 == 0.0 and h2 == 0.0

    def test_l2_below_h2(self, free_soliton, free_dirac, free_profile):
        op, sol = free_soliton
        l2, h2 = error_vs_ansatz(
            op, sol.samples, _leading_order(op, 0.1, free_dirac, free_profile)
        )
        assert 0.0 < l2 <= h2
        # leading-order mismatch is O(delta) relative to the O(1) norms
        assert l2 < 1.0

    def test_h2_on_the_solver_stencil(self):
        """w = exp(-x^2 / 2) has |w|^2 + |w''|^2 = (7/4) sqrt(pi) on the
        line.  The H2 distance takes w'' from the operator's fourth-order
        stencil, with the potential (here mu_delta = -1) removed: at
        h = 1/64 it is off by 2.5e-9 relative, a three-point w'' by 2.2e-5."""
        empty = PeriodicPotential({}, ParityClass.EVEN_INDEX)
        op = discretize_operator(empty, empty, 0.0, -1.0, 12.0, 1 / 64, 1.0)
        w = np.exp(-0.5 * op.x_grid**2)
        zero = np.zeros_like(w)
        field = TwoScaleField(0.1, op.x_grid, zero, zero)
        l2, h2 = error_vs_ansatz(op, w, field)
        assert l2 == pytest.approx(np.pi**0.25, rel=1e-12)
        assert h2 == pytest.approx(np.sqrt(1.75 * np.sqrt(np.pi)), rel=1e-7)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestLapackRoutines:
    """The routines of diracsoliton._lapack against scipy.linalg's public
    wrappers, bit for bit."""

    @pytest.mark.parametrize("n", [1, 30])
    def test_lanczos_tridiagonal_solve_equals_eigh_tridiagonal(self, n):
        """jacobian_min_eig's Ritz pairs: numpy's eigh of the assembled T_j
        gives eigh_tridiagonal's theta, and |s[-1]|, bit for bit."""
        from scipy.linalg import eigh_tridiagonal

        rng = np.random.default_rng(n)
        alpha, beta = rng.standard_normal(n), rng.standard_normal(n - 1)
        theta, s = np.linalg.eigh(np.diag(alpha) + np.diag(beta, -1))
        ref_theta, ref_s = eigh_tridiagonal(alpha, beta)
        assert _same_bits(theta, ref_theta)
        assert _same_bits(np.abs(s[-1]), np.abs(ref_s[-1]))

    def test_lanczos_tridiagonal_solve_rejects_non_finite(self, monkeypatch):
        """A NaN solve makes the Lanczos coefficients NaN, for which eigh
        would return finite eigenvalues; the step that made them is named."""
        n = 400
        op = _diagonal_operator(n)
        solves = []

        def nan_on_second(lu, kl, ku, b, piv):
            solves.append(b)
            x, info = _lapack.dgbtrs(lu, kl, ku, b, piv)
            return (np.full_like(x, np.nan) if len(solves) == 2 else x), info

        monkeypatch.setattr(newton, "dgbtrs", nan_on_second)
        with pytest.raises(RuntimeError, match=r"N = 400, Lanczos step 2: alpha = nan, beta = nan"):
            jacobian_min_eig(op, np.zeros(n), 0.0)
        assert len(solves) == 2

    def test_banded_lu_equals_scipy_linalg_lapack(self):
        from scipy.linalg import lapack

        n = 200
        rng = np.random.default_rng(7)
        ab = np.zeros((7, n), order="F")
        ab[2:] = rng.standard_normal((5, n))
        b = rng.standard_normal(n)
        lu, piv, info = _lapack.dgbtrf(ab.copy(order="F"), 2, 2)
        ref_lu, ref_piv, ref_info = lapack.dgbtrf(ab.copy(order="F"), 2, 2)
        assert info == ref_info == 0
        assert _same_bits(lu, ref_lu) and _same_bits(piv, ref_piv)
        x, info = _lapack.dgbtrs(lu, 2, 2, b, piv)
        ref_x, ref_info = lapack.dgbtrs(ref_lu, 2, 2, b, ref_piv)
        assert info == ref_info == 0
        assert _same_bits(x, ref_x)
