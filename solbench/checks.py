"""Output checks for the CLI artifacts, computed apart from the program.

Every check returns a list of error strings; an empty list means the
artifact passed.  The checks recompute what they can with their own
code (Hill-matrix eigenvalues, band slopes, the stationary-equation
residual, the Jacobian's eigenvalue nearest zero) and otherwise test
properties the method must have (an open gap of the predicted width,
energy conservation, the envelope's decay rate, delta-scaling).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import eigsh

# A returned soliton must solve the stationary equation, under the
# benchmark's own sixth-order stencil, to within twice the truncation
# level of a second-order scheme on the same field, |(D6 - D2) u| / |u|.
# Any consistent discretisation at the workload's h meets that bound.
# At h = 1/64 the bound reads about 0.11 (lattice) and 4e-3 (free);
# today's fourth-order solver reads 5e-4 and 8e-7.
MIN_ORDER = 0.8


def artifact_hashes(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact file in an output directory."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(out.iterdir())
        if f.is_file()
    }


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def _cosines(pairs) -> dict[int, float]:
    out: dict[int, float] = {}
    for m, amp in pairs:
        out[int(m)] = out.get(int(m), 0.0) + float(amp)
    return out


def _cos_series(coeffs: dict[int, float], x: np.ndarray) -> np.ndarray:
    return sum(
        (amp * np.cos(2.0 * np.pi * m * x) for m, amp in coeffs.items()),
        np.zeros_like(x),
    )


def hill_eigenvalues(coeffs: dict[int, float], k: float, M: int) -> np.ndarray:
    """Ascending eigenvalues of -(d/dx + ik)^2 + sum_m a_m cos(2 pi m x), |m| <= M."""
    n = 2 * M + 1
    kinetic = (2.0 * np.pi * np.arange(-M, M + 1) + k) ** 2
    H = np.diag(kinetic)
    for m, amp in coeffs.items():
        if 0 < m < n:
            band = np.full(n - m, 0.5 * amp)
            H += np.diag(band, m) + np.diag(band, -m)
    return np.linalg.eigvalsh(H)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_dirac(cfg: dict, out: Path) -> list[str]:
    """mu*, |c#|, |theta#| against the benchmark's own Hill-matrix solves."""
    d = _load(out / "dirac_point.json")
    errors = []
    mu, c, theta = float(d["mu_star"]), float(d["c_sharp"]), float(d["theta_sharp"])
    n1, n2 = d["band_pair"]
    pair = cfg.get("pair", 1)
    if (n1, n2) != (2 * pair - 1, 2 * pair):
        errors.append(f"band pair {d['band_pair']} is not crossing {pair}")
        return errors
    V, W, M = _cosines(cfg["V"]), _cosines(cfg["W"]), cfg["M"]

    ev = hill_eigenvalues(V, math.pi, M)
    for n in (n1, n2):
        if abs(ev[n - 1] - mu) > 1e-9 * (1.0 + abs(mu)):
            errors.append(f"mu_star {mu!r} vs own eigenvalue {ev[n - 1]!r} (band {n})")

    # upper smooth branch: band n2 right of pi, band n1 left of it
    dk = 1e-4
    slope = (
        hill_eigenvalues(V, math.pi + dk, M)[n2 - 1]
        - hill_eigenvalues(V, math.pi - dk, M)[n1 - 1]
    ) / (2.0 * dk)
    if _rel(abs(c), slope) > 1e-6:
        errors.append(f"|c_sharp| {abs(c)!r} vs own band slope {slope!r}")

    tiny = 1e-5
    VW = dict(V)
    for m, amp in W.items():
        VW[m] = VW.get(m, 0.0) + tiny * amp
    evp = hill_eigenvalues(VW, math.pi, M)
    theta_own = 0.5 * (evp[n2 - 1] - evp[n1 - 1]) / tiny
    if _rel(abs(theta), theta_own) > 1e-3:
        errors.append(f"|theta_sharp| {abs(theta)!r} vs own half-gap/delta {theta_own!r}")

    if not V:
        closed = {
            "mu_star": (mu, (pair * math.pi) ** 2),
            "|c_sharp|": (abs(c), 2.0 * pair * math.pi),
            "|theta_sharp|": (abs(theta), 0.5 * abs(W.get(2 * pair - 1, 0.0))),
            "beta1": (float(d["beta1"]), 1.0),
        }
        for name, (got, want) in closed.items():
            if _rel(got, want) > 1e-9:
                errors.append(f"free lattice {name} {got!r} vs closed form {want!r}")
    return errors


def check_gap(cfg: dict, out: Path) -> list[str]:
    """The gap opens for every delta, with half-width delta |theta#| at pi."""
    theta = abs(float(_load(out / "dirac_point.json")["theta_sharp"]))
    reports = _load(out / "gap_report.json")["reports"]
    errors = []
    if [float(r["delta"]) for r in reports] != [float(x) for x in cfg["deltas"]]:
        errors.append("gap reports do not cover the configured deltas")
    for r in reports:
        delta = float(r["delta"])
        if r["gap_open"] is not True or r["violations"]:
            errors.append(f"gap not open at delta={delta}")
        ratio = float(r["half_gap_at_pi"]) / (delta * theta)
        if abs(ratio - 1.0) > 0.1:
            errors.append(f"half gap / (delta |theta#|) = {ratio:.4g} at delta={delta}")
    return errors


def check_homoclinic(cfg: dict, out: Path, dirac_out: Path) -> list[str]:
    """Decay rate, energy drift and the symmetric-subspace singular value."""
    nld = _load(out / "nld_diagnostics.json")
    d = _load(dirac_out / "dirac_point.json")
    theta, c = float(d["theta_sharp"]), float(d["c_sharp"])
    rate = math.sqrt(theta**2 - cfg["mu_sharp"] ** 2) / abs(c)
    errors = []
    fit = float(nld["decay_rate_fit"])
    if _rel(fit, rate) > 0.02:
        errors.append(f"decay_rate_fit {fit!r} vs sqrt(theta^2-mu^2)/|c| {rate!r}")
    drift = float(nld["h_drift_max"])
    if not drift <= 1e-9:
        errors.append(f"h_drift_max {drift!r} above 1e-9")
    s_res = float(nld["sigma_min_restricted"])
    s_unres = float(nld["sigma_min_unrestricted"])
    if not s_res >= 10.0 * s_unres:
        errors.append(f"sigma_min_restricted {s_res!r} < 10 x unrestricted {s_unres!r}")
    return errors


_D2_SIXTH = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
_D2_SECOND = np.array([0.0, 0.0, 1.0, -2.0, 1.0, 0.0, 0.0])
_EDGE = 8


def soliton_residual(
    u_half: np.ndarray, h: float, sign: float, potential: np.ndarray, mu: float
) -> tuple[float, float]:
    """Relative L2 residual of (-d^2 + P - mu) u - u^3 on the mirrored line.

    u_half lives on the staggered half-line x_i = (i + 1/2) h; the full
    line is its mirror with the given parity sign, and zero beyond both
    ends (the solver's Dirichlet cut).  The last few points at each cut
    are left out, since no stencil there sees the true continuation.
    Returns the residual and the second-order truncation level
    |(D6 - D2) u| / |u| of the same field.
    """
    u = np.concatenate([sign * u_half[::-1], u_half])
    P = np.concatenate([potential[::-1], potential])
    padded = np.pad(u, 3)
    d2 = np.convolve(padded, _D2_SIXTH, mode="valid") / h**2
    gap = np.convolve(padded, _D2_SIXTH - _D2_SECOND, mode="valid") / h**2
    r = (-d2 + (P - mu) * u - u**3)[_EDGE:-_EDGE]
    norm = np.linalg.norm(u)
    return float(np.linalg.norm(r) / norm), float(np.linalg.norm(gap[_EDGE:-_EDGE]) / norm)


def jacobian_eigs_near_zero(
    u: np.ndarray, h: float, sign: float, potential: np.ndarray, mu: float, k: int = 6
) -> tuple[np.ndarray, np.ndarray]:
    """The k eigenvalues nearest 0 of the fourth-order half-line Jacobian.

    The mirror condition at 0 folds the ghost values u(-h/2) and
    u(-3h/2) = sign * u(h/2), sign * u(3h/2) into the first two rows;
    beyond L the field is zero.  Shift-invert Lanczos at sigma = 0.
    Returns the eigenvalues and the share of each eigenvector's weight
    in the last tenth of the domain, next to the Dirichlet cut.
    """
    n = len(u)
    c0, c1, c2 = 2.5 / h**2, -4.0 / (3.0 * h**2), 1.0 / (12.0 * h**2)
    main = c0 + potential - mu - 3.0 * u**2
    main[0] += sign * c1
    first = np.full(n - 1, c1)
    first[0] += sign * c2
    second = np.full(n - 2, c2)
    J = diags([second, first, main, first, second], [-2, -1, 0, 1, 2], format="csc")
    v0 = np.cos(0.5 * np.arange(n)) + 1.0
    vals, vecs = eigsh(J, k=k, sigma=0.0, which="LM", v0=v0)
    return vals, np.sum(vecs[(9 * n) // 10:] ** 2, axis=0)


def _read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def _fit_order(deltas, norms) -> float:
    return float(np.polyfit(np.log(deltas), np.log(norms), 1)[0])


def check_soliton(cfg: dict, out: Path, notes: list[str]) -> list[str]:
    """Residual, Jacobian spectrum and delta-scaling of each Newton soliton.

    The reported jacobian_min_eig is compared with the benchmark's own
    eigenvalue nearest 0 and the difference goes to notes, not errors:
    the program's inverse iteration stops after 60 steps without a
    convergence test strong enough for the close spectrum here, and the
    eigenvalue nearest 0 is at times an edge state at the Dirichlet cut,
    so the agreement depends on the seed.
    """
    report = _load(out / "soliton_scaling.json")
    d = _load(out / "dirac_point.json")
    mu_star, theta = float(d["mu_star"]), float(d["theta_sharp"])
    sign = 1.0 if theta > 0 else -1.0
    V, W = _cosines(cfg["V"]), _cosines(cfg["W"])
    errors = []
    deltas = [float(x) for x in cfg["deltas"]]
    runs = report["runs"]
    if [float(r["delta"]) for r in runs] != deltas:
        return ["soliton runs do not cover the configured deltas"]
    for r in runs:
        delta = float(r["delta"])
        x, u = _read_csv(out / f"soliton_delta_{repr(delta).replace('.', 'p')}.csv")
        h = float(x[1] - x[0])
        if (
            _rel(h, cfg["h"]) > 1e-9
            or abs(x[0] - 0.5 * h) > 1e-9 * h
            or np.max(np.abs(np.diff(x) - h)) > 1e-9 * h
        ):
            errors.append(f"delta={delta}: grid is not the staggered h={cfg['h']} grid")
            continue
        mu = mu_star + delta * cfg["mu_sharp"]
        if _rel(float(r["mu_delta"]), mu) > 1e-12:
            errors.append(f"delta={delta}: mu_delta {r['mu_delta']} vs {mu!r}")
        potential = _cos_series(V, x) + delta * _cos_series(W, x)
        rel, second_order = soliton_residual(u, h, sign, potential, mu)
        if not rel <= 2.0 * second_order:
            errors.append(
                f"delta={delta}: relative residual {rel:.3e} above twice the "
                f"second-order truncation level {second_order:.3e}"
            )
        lam = float(r["jacobian_min_eig"])
        vals, cut_weight = jacobian_eigs_near_zero(u, h, sign, potential, mu)
        own = float(vals[np.argmin(np.abs(vals))])
        notes.append(
            f"delta={delta}: jacobian_min_eig {lam!r}, own eigenvalue nearest 0 "
            f"{own!r} (relative difference {_rel(lam, own):.1e})"
        )
        # Dirichlet truncation adds edge states at the cut whose energy
        # moves with where L falls in the cell; the sign test looks only
        # at modes that live away from the cut
        bulk = vals[cut_weight < 0.5]
        if len(bulk) == 0:
            errors.append(f"delta={delta}: no eigenvalue near 0 away from the cut")
            continue
        nearest = float(bulk[np.argmin(np.abs(bulk))])
        if not nearest > 0.0:
            errors.append(
                f"delta={delta}: eigenvalue nearest 0 away from the cut "
                f"{nearest!r} not positive"
            )
    if len(deltas) >= 2:
        for key, norms in (
            ("fitted_error_order", "h2_errors"),
            ("fitted_residual_order", "residual_norms"),
        ):
            order = float(report[key])
            fit = _fit_order(deltas, [float(v) for v in report[norms]])
            if not order >= MIN_ORDER:
                errors.append(f"{key} {order!r} below {MIN_ORDER}")
            if abs(order - fit) > 1e-9:
                errors.append(f"{key} {order!r} vs own fit of {norms} {fit!r}")
    return errors


def check_command(
    command: str, cfg: dict, out: Path, dirac_out: Path, notes: list[str]
) -> list[str]:
    """All checks that apply to one subcommand's output directory.

    dirac_out holds the dirac_point.json the homoclinic check reads;
    for verify-all it is out itself.  Measured figures that are not
    pass/fail go to notes.
    """
    checks = {
        "dirac": lambda: check_dirac(cfg, out) + check_gap(cfg, out),
        "nld": lambda: check_homoclinic(cfg, out, dirac_out),
        "verify-all": lambda: (
            check_dirac(cfg, out)
            + check_gap(cfg, out)
            + check_homoclinic(cfg, out, out)
            + check_soliton(cfg, out, notes)
        ),
    }
    try:
        return checks[command]()
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable artifact: {type(exc).__name__}: {exc}"]
