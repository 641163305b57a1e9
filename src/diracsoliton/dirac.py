"""Dirac points at k = pi: detection, Bloch pair and effective coefficients.

For an even-index cosine potential the truncated matrix at k = pi
decouples into blocks of even and odd Fourier index.  The inversion
x -> -x maps one block onto the other, so every eigenvalue at k = pi
is doubly degenerate and each pair is a linear band crossing.  The
even-block eigenvector supplies g1; its flipped copy q_n = p_{-n-1}
(bloch.conj_flip) supplies g2 = g1(-x), and the effective coefficients
c#, theta#, beta1, beta2 are coefficient-space forms of the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    FourierCutoff,
    ParityClass,
    PeriodicPotential,
    assemble_coefficient_matrix,
    conj_flip,
    coupling_matrix,
    parity_block_eigh,
)

# fourier_eval is re-exported, not called: solbench/spans.py patches
# dirac.fourier_eval until a run record of the package's own replaces the spans
from .bloch import fourier_eval  # noqa: F401

DEGENERACY_RTOL = 1e-8


@dataclass(frozen=True)
class DiracPointData:
    """One certified band crossing at k = pi, made by certify_dirac_point.

    band_pair is 1-based (n*, n*+1).  g1 and g2 are real coefficient
    vectors of the periodic parts of Phi-(., pi) and Phi+(., pi),
    supported on even and odd Fourier indices respectively.
    """

    band_pair: tuple[int, int]
    mu_star: float
    g1: np.ndarray
    g2: np.ndarray
    cutoff: FourierCutoff
    c_sharp: float
    theta_sharp: float
    beta1: float
    beta2: float
    pot_V: PeriodicPotential
    pot_W: PeriodicPotential


@dataclass
class GapReport:
    delta: float
    a: float
    interval: tuple[float, float]
    violations: list[tuple[float, int, float]]
    half_gap_at_pi: float

    @property
    def gap_open(self) -> bool:
        return not self.violations


def find_dirac_point(
    pot_V: PeriodicPotential, cut: FourierCutoff, pair_selector: int = 1
) -> tuple[tuple[int, int], float, np.ndarray, np.ndarray]:
    """Locate the pair_selector-th (1-based) band crossing at k = pi.

    Returns (band_pair, mu*, g1, g2).  g1 is taken from the even-index
    block only (bloch.parity_block_eigh), so the splitting and inversion
    structure hold exactly by construction; g2 is its conj_flip,
    Phi+ = conj(Phi-).  Both are re-verified against the full matrix.
    """
    if pair_selector < 1:
        raise ValueError("pair_selector is a 1-based crossing ordinal")
    if pair_selector > cut.M:  # the smaller parity block holds M eigenvalues
        raise ValueError(
            f"pair_selector {pair_selector} exceeds the cutoff M = {cut.M}: "
            "a parity block at k = pi holds only M eigenvalues"
        )
    A, ((even_pos, evals_e, evecs_e), (_, evals_o, _)) = parity_block_eigh(pot_V, [np.pi], cut)
    A, evals_e, evecs_e, evals_o = A[0], evals_e[0], evecs_e[0], evals_o[0]
    c = pair_selector - 1
    mu_star = evals_e[c]
    tol = DEGENERACY_RTOL * (1.0 + abs(mu_star))
    if abs(evals_o[c] - mu_star) > tol:
        raise ValueError(
            f"not a Dirac point: even/odd eigenvalues {mu_star:.12g} and "
            f"{evals_o[c]:.12g} differ by more than {tol:.3e}"
        )
    for other in (c - 1, c + 1):
        if 0 <= other < len(evals_e) and abs(evals_e[other] - mu_star) <= tol:
            raise RuntimeError(
                f"ambiguous degeneracy: even block holds eigenvalues "
                f"{evals_e[other]:.12g} and {mu_star:.12g} within tolerance"
            )

    g1 = np.zeros(cut.size)
    g1[even_pos] = evecs_e[:, c]
    if g1[np.argmax(np.abs(g1))] < 0:
        g1 = -g1
    g2 = conj_flip(g1)

    for g in (g1, g2):
        resid = np.max(np.abs(A @ g - mu_star * g))
        if resid > 1e-8 * (1.0 + abs(mu_star)):
            raise RuntimeError(
                f"constructed kernel vector fails the eigen-equation, residual {resid:.3e}"
            )

    n_star = 2 * pair_selector - 1
    return (n_star, n_star + 1), float(mu_star), g1, g2


def compute_c_sharp(g1: np.ndarray, g2: np.ndarray) -> float:
    """Crossing slope c# = -2 sum_m (2 pi m + pi) |p_m|^2 from g1.

    Also evaluates the g2-based expression (opposite sign convention)
    and checks consistency.
    """
    M = (len(g1) - 1) // 2
    freqs = 2.0 * np.pi * np.arange(-M, M + 1) + np.pi
    c1 = -2.0 * float(freqs @ (g1 ** 2))
    c2 = 2.0 * float(freqs @ (g2 ** 2))
    if abs(c1 - c2) > 1e-12 * (1.0 + abs(c1)):
        raise RuntimeError(f"c# consistency failure: {c1!r} vs {c2!r}")
    if abs(c1) < 1e-8:
        raise RuntimeError(
            "degenerate crossing (quadratic touching): |c#| below 1e-8, "
            "Dirac-point certification fails"
        )
    return c1


def compute_theta_sharp(g1: np.ndarray, g2: np.ndarray, pot_W: PeriodicPotential) -> float:
    """Gap-opening coefficient theta# = <W Phi+(., pi), Phi-(., pi)>."""
    if pot_W.parity_class is not ParityClass.ODD_INDEX:
        raise ValueError("theta# requires an odd-index potential W")
    theta = float(np.vdot(g1, coupling_matrix(pot_W.coeffs, len(g1)) @ g2))
    if abs(theta) < 1e-10:
        raise ValueError(
            "W does not open a gap at this Dirac point: theta# vanishes"
        )
    return theta


def compute_betas(g1: np.ndarray, g2: np.ndarray) -> tuple[float, float]:
    """Quartic cell integrals beta1 = int |Phi+|^2 |Phi-|^2, beta2 = int conj(Phi+)^2 Phi-^2.

    The periodic parts are trigonometric polynomials with the real
    coefficients g1 (Phi-) and g2 (Phi+), so each integrand is one too
    and its cell mean is a finite sum of coefficients, exact and real:
    a product's coefficients are the convolution of its factors', a
    conjugate's are the reversed vector, and the mean of f g is
    sum_m f_m g_-m.  No grid, no cutoff beyond the vectors' own.
    """
    conv = np.convolve
    beta1 = float(conv(g1, g1[::-1]) @ conv(g2, g2[::-1])[::-1])
    beta2 = float(conv(g2[::-1], g2[::-1]) @ conv(g1, g1)[::-1])
    if beta1 <= 0.0 or abs(beta2) > beta1 * (1.0 + 1e-12):
        raise RuntimeError(f"beta values violate 0 < |beta2| <= beta1: {beta1}, {beta2}")
    return beta1, beta2


def certify_dirac_point(
    pot_V: PeriodicPotential,
    pot_W: PeriodicPotential,
    cut: FourierCutoff,
    pair_selector: int = 1,
) -> DiracPointData:
    """find_dirac_point plus all effective coefficients, in one record.

    A W cosine index above 2M, which couples no two retained modes, is
    rejected: the cutoff would drop it unseen from theta# and the gap sweep.
    """
    if pot_W.max_index > 2 * cut.M:
        raise ValueError(
            f"W cosine index {pot_W.max_index} above 2M = {2 * cut.M}: the cutoff "
            f"M={cut.M} couples no two modes through it"
        )
    band_pair, mu_star, g1, g2 = find_dirac_point(pot_V, cut, pair_selector)
    return DiracPointData(
        band_pair, mu_star, g1, g2, cut,
        compute_c_sharp(g1, g2),
        compute_theta_sharp(g1, g2, pot_W),
        *compute_betas(g1, g2),
        pot_V, pot_W,
    )


def default_gap_k_grid() -> np.ndarray:
    """Chebyshev-clustered points near pi plus a coarse global grid."""
    t = np.linspace(0.0, np.pi, 401)
    local = np.pi + 0.5 * np.cos(t)  # clusters at pi +- 0.5
    global_grid = np.linspace(0.0, 2.0 * np.pi, 81)
    # sorted, equal neighbours dropped: np.unique's first call imports numpy.ma
    grid = np.sort(np.concatenate([local, global_grid]))
    return grid[np.concatenate(([True], grid[1:] != grid[:-1]))]


def verify_gap_opening(data: DiracPointData, delta: float, a: float) -> GapReport:
    """Sweep the bands of H + delta*W and test the predicted gap interval.

    Success means no band value inside (mu* - a delta |theta#|,
    mu* + a delta |theta#|) on default_gap_k_grid.  W breaks the half-period structure, so
    the operator is the full mixed-index band matrix.  A screen first
    counts, for every k at once, the eigenvalues below each end of the
    interval (Sylvester's inertia of a small Schur complement, see
    `_inertia_counts`); equal counts with both ends well clear of the
    spectrum leave no eigenvalue inside.  Only the k-points it flags
    are solved exactly, in grid order, with the same dense solve as
    the half-gap at pi; a band's index is its position in the
    ascending spectrum, and these values alone decide and describe
    each violation.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("safety fraction a must lie in (0, 1)")
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    k_grid = default_gap_k_grid()
    half = a * delta * abs(data.theta_sharp)
    lo, hi = data.mu_star - half, data.mu_star + half
    coeffs = dict(data.pot_V.coeffs)
    for j, amp in data.pot_W.coeffs.items():
        coeffs[j] = coeffs.get(j, 0.0) + delta * amp
    M = data.cutoff.M
    # degenerate interval {mu*}: mu* itself is in the spectrum, so test a
    # tolerance band around it, inclusively
    tol = 1e-9 * (1.0 + abs(data.mu_star))
    edges = (lo, hi) if half > 0.0 else (data.mu_star - tol, data.mu_star + tol)
    counts, nearest = _inertia_counts(coeffs, M, k_grid, edges)
    margin = _FLAG_RTOL * (1.0 + abs(data.mu_star))
    flagged = (counts[0] != counts[1]) | np.any(nearest <= margin, axis=0)
    violations = []
    # eigh, as find_dirac_point: eigvalsh's half gap drifts 1e-7 by M = 1000
    for k in k_grid[flagged]:
        evals = np.linalg.eigh(assemble_coefficient_matrix(coeffs, k, M))[0]
        if half == 0.0:
            inside = np.where(np.abs(evals - data.mu_star) <= tol)[0]
        else:
            inside = np.where((evals > lo) & (evals < hi))[0]
        for n in inside:
            violations.append((float(k), int(n + 1), float(evals[n])))
    evals_pi = np.linalg.eigh(assemble_coefficient_matrix(coeffs, np.pi, M))[0]
    i = data.band_pair[0] - 1
    half_gap = 0.5 * float(evals_pi[i + 1] - evals_pi[i])
    return GapReport(
        delta=float(delta),
        a=float(a),
        interval=(float(lo), float(hi)),
        violations=violations,
        half_gap_at_pi=half_gap,
    )


def frequency_window_check(dirac: DiracPointData, mu_sharp: float, a: float) -> bool:
    """Whether |mu#| < a |theta#|.

    mu_delta = mu* + delta mu# then lies in the protected gap
    (mu* - a delta |theta#|, mu* + a delta |theta#|) at every delta.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("safety fraction a must lie in (0, 1)")
    return abs(mu_sharp) < a * abs(dirac.theta_sharp)


# A tail row's diagonal exceeds every shift by twice its Gershgorin radius
# R plus the flag margin.  Then every pivot of the tail elimination stays
# above R and the margin, so the tails
# are positive definite and well conditioned, and |A_mt A_tt^-1| < 1 bounds
# the Schur complement's eigenvalue nearest 0 by about twice the distance
# from the shift to the spectrum (it is never below that distance).
_TAIL_DOMINANCE = 2.0
# Relative distance from 0 below which an eigenvalue of the Schur complement
# leaves the count in doubt and the k-point goes to the exact solve.  It lies
# far above the eigen-solver's backward error eps |H(k)| (~1e-10 at
# M = 128), so an exact eigenvalue that could land inside the interval is
# always caught.
_FLAG_RTOL = 1e-9


def _inertia_counts(coeffs: dict[int, float], M: int, k_grid, sigmas):
    """Count the eigenvalues of the truncated H(k) below each shift, for all k.

    Rows whose diagonal (2 pi m + k)^2 clears every shift by
    _TAIL_DOMINANCE times the Gershgorin radius at every k form two
    tails; eliminating them (unpivoted Cholesky order, from the outer
    end inward) leaves a Schur complement S on the few middle rows.  By
    Haynsworth's inertia additivity the tails add no negative
    eigenvalue, so the number of negative eigenvalues of S(sigma) is
    the number of eigenvalues below sigma.  Returns counts and the
    smallest |eigenvalue| of each S, both of shape (len(sigmas), len(k)).
    """
    # every index is at most 2M: V's by its cutoff rule, W's by certify_dirac_point
    bands = {j: amp for j, amp in coeffs.items() if amp != 0.0}
    u = max(bands, default=0)
    k = np.asarray(k_grid, dtype=float)
    sigmas = np.asarray(sigmas, dtype=float)
    d = (2.0 * np.pi * np.arange(-M, M + 1)[None, :] + k[:, None]) ** 2
    radius = sum(abs(amp) for amp in bands.values())
    clear = d.min(axis=0) - sigmas.max()
    # a tail row must also clear the shifts by more than the flag margin:
    # at radius 0 a row within it would hide its eigenvalue from S
    slack = _FLAG_RTOL * (1.0 + np.abs(sigmas).max())
    core = np.flatnonzero(clear <= _TAIL_DOMINANCE * (radius + slack))
    lo, hi = (core[0], core[-1]) if core.size else (np.argmin(clear),) * 2
    n = 2 * M + 1
    while hi - lo < u:  # at least u + 1 middle rows: the tails do not couple
        lo, hi = max(lo - 1, 0), min(hi + 1, n - 1)

    shifted = d.T[:, None, :] - sigmas[:, None]  # (row, shift, k)
    width = hi - lo + 1
    middle = np.moveaxis(shifted[lo : hi + 1], 0, -1)  # (shift, k, row)
    S = coupling_matrix(bands, width) + middle[..., None] * np.eye(width)
    # both tails in one elimination, outer end first; the shorter one is
    # padded at its outer end with rows of infinite diagonal, which add nothing
    lower, upper = shifted[:lo], shifted[hi + 1 :][::-1]
    tails = np.full((max(len(lower), len(upper)), 2) + shifted.shape[1:], np.inf)
    tails[len(tails) - len(lower) :, 0] = lower
    tails[len(tails) - len(upper) :, 1] = upper
    carry = np.moveaxis(_tail_schur(tails, coupling_matrix(bands, u + 1)), (0, 1), (-2, -1))
    S[..., :u, :u] += carry[0]
    S[..., width - u :, width - u :] += carry[1, ..., ::-1, ::-1]
    eig = np.linalg.eigvalsh(S)
    return np.count_nonzero(eig < 0.0, axis=-1), np.min(np.abs(eig), axis=-1)


def _tail_schur(diag: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Schur correction a tail leaves on the u rows next to it.

    diag holds the tail's shifted diagonal, outer end first, along its
    first axis (the other axes are a batch); T is the (u + 1) x (u + 1)
    coupling window.  Each step eliminates one row with the window
    sliding inward; the (u, u, batch) carry is what the eliminated rows
    have added to the next u rows.
    """
    u = len(T) - 1
    carry = np.zeros((u, u) + diag.shape[1:])
    for pivot in diag if u else ():
        pivot = pivot + carry[0, 0]
        col = np.zeros((u,) + diag.shape[1:])
        col[:-1] = carry[1:, 0]
        col += T[1:, 0].reshape((u,) + (1,) * (diag.ndim - 1))
        nxt = np.zeros_like(carry)
        nxt[:-1, :-1] = carry[1:, 1:]
        carry = nxt - col[:, None] * (col / pivot)[None, :]
    return carry
