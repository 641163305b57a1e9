"""End-to-end checks of the pipeline's quantitative claims.

Each test exercises one verifiable claim at its stated tolerance, from
the closed-form free-lattice coefficients through the delta-scaling of
the Newton soliton and the byte-level determinism of the CLI driver.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from conftest import band_slope_oracle
from diracsoliton import FourierCutoff, NLDParams, certify_dirac_point, integrate_homoclinic
from diracsoliton.ansatz import (
    assemble_udelta,
    build_G1,
    build_U0,
    fit_order,
    residual_norm,
    solvability_check,
    solve_U1,
)
from diracsoliton.bloch import assemble_fb_matrix, fourier_eval, solve_bands_at_k
from diracsoliton.cli import main as cli_main
from diracsoliton.dirac import parity_block_split, verify_gap_opening
from diracsoliton.homoclinic import kernel_check_on_Y
from diracsoliton.newton import (
    NewtonConfig,
    discretize_operator,
    error_vs_ansatz,
    jacobian_min_eig,
    newton_solve,
    parity_from_theta,
)

DELTAS = [0.1, 0.05, 0.025]


def test_free_operator_closed_forms(pot_free, pot_w):
    t0 = time.perf_counter()
    data = certify_dirac_point(pot_free, pot_w, FourierCutoff(64))
    assert data.mu_star == pytest.approx(np.pi**2, abs=1e-10)
    assert abs(data.c_sharp) == pytest.approx(2.0 * np.pi, abs=1e-8)
    # the two carrier vectors give the same slope with opposite signs
    freqs = 2.0 * np.pi * data.cutoff.indices() + np.pi
    c_from_g1 = -2.0 * float(freqs @ data.g1**2)
    c_from_g2 = 2.0 * float(freqs @ data.g2**2)
    assert c_from_g1 == pytest.approx(c_from_g2, abs=1e-12)
    assert data.theta_sharp == pytest.approx(0.5, abs=1e-10)
    assert data.beta1 == pytest.approx(1.0, abs=1e-10)
    assert data.beta2 == pytest.approx(0.0, abs=1e-10)
    assert time.perf_counter() - t0 < 1.0


def test_default_lattice_certification(pot_v, pot_w):
    t0 = time.perf_counter()
    data = certify_dirac_point(pot_v, pot_w, FourierCutoff(64))
    sol = solve_bands_at_k(pot_v, np.pi, data.cutoff)
    i_lo, i_hi = data.band_pair[0] - 1, data.band_pair[1] - 1
    assert abs(sol.eigenvalues[i_hi] - sol.eigenvalues[i_lo]) <= 1e-8
    A = assemble_fb_matrix(pot_v, np.pi, data.cutoff)
    _, _, even_pos, odd_pos = parity_block_split(A)
    assert np.max(np.abs(A[np.ix_(even_pos, odd_pos)])) == 0.0
    s_minus, _ = band_slope_oracle(pot_v, data)
    assert abs(s_minus) == pytest.approx(abs(data.c_sharp), rel=1e-4)
    assert abs(data.beta2) <= data.beta1
    x = np.arange(2048) / 2048.0
    P1 = fourier_eval(data.g1, 0.0, x)
    P2 = fourier_eval(data.g2, 0.0, x)
    b2 = complex(np.mean(np.conj(P2) ** 2 * P1**2))
    assert abs(b2.imag) <= 1e-10
    assert b2.real == pytest.approx(data.beta2, abs=1e-10)
    assert time.perf_counter() - t0 < 5.0


def test_gap_opening_window(default_dirac):
    t0 = time.perf_counter()
    for delta in (0.05, 0.1):
        rep = verify_gap_opening(default_dirac, delta, 0.9)
        assert rep.gap_open, rep.violations
        predicted = delta * abs(default_dirac.theta_sharp)
        assert rep.half_gap_at_pi == pytest.approx(predicted, rel=0.1)
    assert time.perf_counter() - t0 < 30.0


def test_homoclinic_envelope_diagnostics(default_dirac, sector_residual):
    theta = abs(default_dirac.theta_sharp)
    for ratio in (0.0, 0.3, 0.6):
        t0 = time.perf_counter()
        params = NLDParams(
            c_sharp=default_dirac.c_sharp,
            theta_sharp=default_dirac.theta_sharp,
            mu_sharp=ratio * theta,
            beta1=default_dirac.beta1,
            beta2=default_dirac.beta2,
        )
        prof = integrate_homoclinic(params)
        # the orbit lives on the zero level of the conserved Hamiltonian
        assert prof.h_drift_max <= 1e-9
        assert np.max(np.abs(prof.hamiltonian_trace)) <= 1e-9
        y = np.linspace(0.1, 0.8 * prof.y_max, 300)
        up, vp = prof.evaluate(y)
        um, vm = prof.evaluate(-y)
        assert np.max(np.abs(up - um)) <= 1e-9
        assert np.max(np.abs(vp + vm)) <= 1e-9
        assert prof.decay_rate_fit == pytest.approx(params.decay_rate, rel=0.02)
        # Psi' is in the kernel of the staggered linearisation
        assert sector_residual(prof, 6001) <= 1e-6
        assert time.perf_counter() - t0 < 1.0


def test_symmetric_subspace_invertibility(default_params, default_profile):
    t0 = time.perf_counter()
    res = kernel_check_on_Y(default_params, default_profile)
    # translation mode: near-kernel without the symmetry restriction
    assert res.sigma_min_unrestricted <= 1e-4 * res.operator_norm
    assert res.sigma_min_restricted >= 10.0 * res.sigma_min_unrestricted
    assert time.perf_counter() - t0 < 10.0


def test_linearised_nld_margin_matches_lattice_jacobian(tmp_path):
    """The lattice Jacobian's soliton eigenvalue is delta times the NLD margin on Y.

    Free lattice with theta# < 0 (the odd-parity sector), a domain whose
    Dirichlet cut carries no edge state.
    """
    cfg = tmp_path / "free.cfg"
    cfg.write_text(
        "V = []\n"
        "W = [[1, -1.0]]\n"
        "M = 16\n"
        "mu_sharp = 0.1\n"
        "deltas = [0.2, 0.1]\n"
        "h = 0.015625\n"
        "L = 1400.0\n"
        "y_max = 290.0\n"
    )
    out = tmp_path / "out"
    assert cli_main(["verify-all", "--config", str(cfg), "--out", str(out)]) == 0
    nld = json.loads((out / "nld_diagnostics.json").read_text())
    margin = float(nld["sigma_min_restricted"])
    runs = json.loads((out / "soliton_scaling.json").read_text())["runs"]
    (run,) = [r for r in runs if float(r["delta"]) == 0.1]
    assert abs(float(run["jacobian_min_eig"]) / 0.1 - margin) <= 1e-3


def test_corrector_solvability(default_dirac, default_profile):
    t0 = time.perf_counter()
    forcing = build_G1(default_dirac, default_profile)
    rel = solvability_check(forcing, default_profile.y_grid[::10])
    assert rel <= 1e-6
    sol = solve_U1(forcing, default_dirac)
    from diracsoliton.ansatz import _pad_modes

    M, Me = default_dirac.cutoff.M, forcing.cutoff_ext.M
    for g in (default_dirac.g1, default_dirac.g2):
        gp = _pad_modes(g.astype(complex), M, Me)
        assert np.max(np.abs(sol.x_solutions @ np.conj(gp))) <= 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_residual_scaling_order(pot_v, pot_w, default_dirac, default_profile):
    t0 = time.perf_counter()
    corrector = solve_U1(build_G1(default_dirac, default_profile), default_dirac)
    ell = 1.0 / default_profile.params.decay_rate
    h = 1.0 / 256.0
    parity = parity_from_theta(default_dirac.theta_sharp)
    norms, u0_norms = [], []
    for delta in DELTAS:
        L = 10.5 * ell / delta
        fld = assemble_udelta(default_dirac, default_profile, corrector, delta, L, h)
        op = discretize_operator(pot_v, pot_w, delta, fld.mu_delta, fld.x_grid, parity)
        norms.append(residual_norm(fld, op))
        u0 = np.sqrt(delta) * build_U0(default_dirac, default_profile, delta, fld.x_grid)
        u0_norms.append(residual_norm(dataclasses.replace(fld, samples=u0), op))
    # measured: order 1.98 with the corrector U1, 1.00 with U0 alone
    order = fit_order(DELTAS, norms)
    assert order >= 1.5, (norms, order)
    u0_order = fit_order(DELTAS, u0_norms)
    assert u0_order <= 1.2, (u0_norms, u0_order)
    assert time.perf_counter() - t0 < 300.0


def test_newton_soliton_error_scaling(pot_v, pot_w, default_dirac, default_profile):
    t0 = time.perf_counter()
    corrector = solve_U1(build_G1(default_dirac, default_profile), default_dirac)
    params = default_profile.params
    ell = 1.0 / params.decay_rate
    h = 1.0 / 256.0
    parity = parity_from_theta(default_dirac.theta_sharp)
    cfg = NewtonConfig()
    h2_errors = []
    for delta in DELTAS:
        L = min(18.5 * ell, 0.995 * default_profile.y_max) / delta
        fld = assemble_udelta(default_dirac, default_profile, corrector, delta, L, h)
        mu_delta = default_dirac.mu_star + delta * params.mu_sharp
        op = discretize_operator(pot_v, pot_w, delta, mu_delta, fld.x_grid, parity)
        sol = newton_solve(op, delta, mu_delta, fld.samples, cfg)
        assert len(sol.newton_history) <= 8
        assert sol.newton_history[-1] < 1e-10
        lam = jacobian_min_eig(op, sol.samples)
        assert lam > 0.0, (delta, lam)
        _, h2 = error_vs_ansatz(sol, fld)
        h2_errors.append(h2)
    order = fit_order(DELTAS, h2_errors)
    assert order >= 0.8, (h2_errors, order)
    assert time.perf_counter() - t0 < 600.0


def test_cli_verify_all_deterministic(tmp_path):
    cfg = tmp_path / "free.cfg"
    cfg.write_text(
        "V = []\n"
        "W = [[1, 1.0]]\n"
        "M = 16\n"
        "deltas = [0.1]\n"
        "h = 0.015625\n"
        "n_bands = 6\n"
        "n_k = 33\n"
    )
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli_main(["verify-all", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    assert "verify_all.json" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
