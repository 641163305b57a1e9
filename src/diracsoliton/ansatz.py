"""Two-scale soliton ansatz: carrier Bloch pair times the spinor envelope.

The candidate field is u_delta(x) = sqrt(delta) (U0(x, delta x)
+ delta U1(x, delta x)) with U0 = Psi-(y) Phi-(x) + Psi+(y) Phi+(x)
= 2 Re(Psi- Phi-).  U1 is real the same way: its forcing is G1 = H + c.c.
and its cell operator is real, so U1 = 2 Re of the solution for H.
All fast-variable functions here are pi-pseudo-periodic,
f(x) = e^{i pi x} sum_m c_m e^{2 pi i m x}, and are kept as their
plane-wave coefficients c_m, the representation of the Bloch modes.  The
corrector forcing lives at the extended cutoff M_ext = 3M + 2, which
holds the triple products of the carriers exactly.

H = sum_j f_j(x) g_j(y), four terms.  The corrector is one array, row j
the kernel-orthogonal x-solution of f_j (build_G1, then solve_U1); the
g_j, fixed by the NLD structure, come from y_factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    FourierCutoff,
    cell_offsets,
    conj_flip,
    coupling_matrix,
    fourier_eval,
    parity_block_eigh,
)
from .dirac import DiracPointData
from .homoclinic import SpinorProfile, _rhs


@dataclass
class TwoScaleField:
    """Real candidate soliton sqrt(delta) (U0 + delta U1) on a parity half-line.

    x_grid is the array of Newton's operator it was synthesised on, not
    a copy; the operator's first rows fold in the mirror image that
    extends the field to the full line.  samples holds the scaled field,
    u0_samples the unscaled U0.
    """

    delta: float
    x_grid: np.ndarray
    samples: np.ndarray
    u0_samples: np.ndarray


def extended_cutoff(cut: FourierCutoff) -> FourierCutoff:
    """Cutoff holding triple products of base-cutoff pseudo-periodic factors."""
    return FourierCutoff(3 * cut.M + 2)


def _spinor(params, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Psi- = (u + iv)/2 and dy Psi- from the envelope vector field."""
    du, dv = _rhs(params, u, v)
    return 0.5 * (u + 1j * v), 0.5 * (du + 1j * dv)


def y_factors(psi, dpsi):
    """The y-factors g_j of H's four terms, in build_G1's row order, from
    samples of Psi-(y) and dy Psi-(y): one array at a time."""
    yield 2.0 * dpsi
    yield psi
    yield 3.0 * np.abs(psi) ** 2 * psi
    yield psi**2 * psi


def _kernel(dirac: DiracPointData) -> np.ndarray:
    """The carriers Phi-, Phi+ (rows g1, g2) at the extended cutoff: the
    kernel of the corrector's cell operator."""
    M, M_ext = dirac.cutoff.M, extended_cutoff(dirac.cutoff).M
    kernel = np.zeros((2, 2 * M_ext + 1))
    kernel[:, M_ext - M : M_ext + M + 1] = dirac.g1, dirac.g2
    return kernel


def _synthesise(
    dirac: DiracPointData,
    profile: SpinorProfile,
    delta: float,
    x_grid,
    x_solutions: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """U0 samples and U1 samples, from the corrector's x-solutions.

    Every carrier is e^{i pi x} times a 1-periodic function, so the
    carriers are summed once at the grid's distinct cell offsets, as one
    table of g1 and the corrector x-solutions, and gathered term by term;
    the Bloch phase e^{i pi n} = (-1)^n of the cell n = floor(x) multiplies
    last.  U1 = 2 Re(sum_j s_j(x) g_j(y)), s_j the x-solution of H's
    term j: real by construction, as U0 is.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    u, v = profile.evaluate(delta * x_grid)
    carriers = np.vstack([_kernel(dirac)[:1], x_solutions])
    r, where, n = cell_offsets(x_grid)
    where = where.reshape(x_grid.shape)
    sign = (1.0 - 2.0 * (n % 2)).reshape(x_grid.shape)  # e^{i pi n}, exactly
    table = fourier_eval(carriers, np.pi, r)
    phi = table[0][where] * sign
    u0 = u * phi.real - v * phi.imag
    field1 = np.zeros(x_grid.shape, dtype=complex)
    for row, g in zip(table[1:], y_factors(*_spinor(profile.params, u, v))):
        field1 += row[where] * g
    return u0, 2.0 * sign * field1.real


def build_U0(
    dirac: DiracPointData, profile: SpinorProfile, delta: float, x_grid
) -> np.ndarray:
    """Leading-order field U0(x, delta x) = 2 Re(Psi-(delta x) Phi-(x)).

    Real by construction since Psi+ = conj(Psi-) and Phi+ = conj(Phi-).
    """
    no_terms = np.empty((0, extended_cutoff(dirac.cutoff).size))
    return _synthesise(dirac, profile, delta, x_grid, no_terms)[0]


def build_G1(dirac: DiracPointData, profile: SpinorProfile) -> np.ndarray:
    """x-profiles f_j of G1 = H + c.c.'s four Phi- terms H, at the extended cutoff.

    With a = Psi- Phi- (U0 = a + c.c.), H holds one of each conjugate
    pair: 2 dxPhi- dyPsi- from 2 dx dy U0, (mu# - W) Phi- Psi- from
    (mu# - W) U0, and 3 |Phi-|^2 Phi- |Psi-|^2 Psi- and Phi-^3 Psi-^3 from
    U0^3 = 3 |a|^2 a + a^3 + c.c.  Slow-variable derivatives come from the
    envelope vector field, not differences; W multiplies through
    bloch.coupling_matrix.  The coefficients are real and Phi+ is
    conj_flip(g1), so conj(Phi-) = Phi+ and |Phi-|^2 Phi- is P^2 Q.
    """
    mu_sharp = profile.params.mu_sharp
    cut_ext = extended_cutoff(dirac.cutoff)
    M_ext = cut_ext.M
    P, Q = _kernel(dirac)
    # W Phi reaches mode |m| + j <= 3M from carrier mode m (certify_dirac_point
    # holds j <= 2M), so mode M_ext of every Phi- term is zero: conj_flip is exact
    dx = 1j * np.pi * (2 * cut_ext.indices() + 1)
    C = coupling_matrix(dirac.pot_W.coeffs, cut_ext.size)

    def cube(a, b, c):
        # e^{3 i pi x} = e^{i pi x} e^{2 pi i x}: one mode up, support within 3M + 1
        return np.convolve(np.convolve(a, b), c)[2 * M_ext - 1 : 4 * M_ext]

    return np.stack([
        dx * P,  # 2 dxPhi- * dyPsi-
        mu_sharp * P - C @ P,  # (mu# - W) Phi- * Psi-
        cube(P, P, Q),  # 3 |Phi-|^2 Phi- * |Psi-|^2 Psi-
        cube(P, P, P),  # Phi-^3 * Psi-^3
    ])


def solvability_check(
    dirac: DiracPointData,
    profile: SpinorProfile,
    x_profiles: np.ndarray,
    y_grid,
    fail_tol: float | None = None,
) -> float:
    """Largest kernel projection of the forcing, relative to its size.

    The forcing is the whole real G1 of x_profiles (build_G1) and
    profile, at each y H plus its conj-flip.  For an envelope that
    solves the effective spinor system it is orthogonal to the carrier
    pair at every y, which is exactly the condition making the corrector
    solvable.  dy Psi comes from differences of the envelope's samples
    at y +- s, y +- 2s with s = 1e-3 / decay_rate, so an envelope that
    does not solve the system shows in the projection.
    """
    y_grid = np.asarray(y_grid, dtype=float)
    # dy Psi from fourth-order differences of evaluate: taken from the
    # vector field instead, any (u, v) would project to zero
    s = 1e-3 / profile.params.decay_rate
    stencil = np.add.outer(s * np.arange(-2.0, 3.0), y_grid)
    u, v = (w.reshape(stencil.shape) for w in profile.evaluate(stencil.ravel()))
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * s)
    psi = 0.5 * (u[2] + 1j * v[2])
    dpsi = 0.5 * (weights @ u + 1j * (weights @ v))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        H = np.stack(list(y_factors(psi, dpsi)), axis=1) @ x_profiles
        G1 = H + conj_flip(H)
        proj = np.max(np.abs(G1 @ _kernel(dirac).T), axis=1)  # the carriers are real
        scale = np.max(np.linalg.norm(G1, axis=1))
    if not (np.isfinite(scale) and np.all(np.isfinite(proj))):
        raise ValueError(
            f"corrector: the forcing's size {scale:.3g} or its kernel projection "
            f"{np.max(proj):.3g} is not a finite number: "
            f"theta#={profile.params.theta_sharp:.6g}, decay rate {profile.params.decay_rate:.6g}"
        )
    if scale == 0.0:
        return 0.0
    rel = float(np.max(proj) / scale)
    if fail_tol is not None and not rel <= fail_tol:
        bad = float(y_grid[np.argmax(proj)])
        raise RuntimeError(
            f"kernel projection {rel:.3e} exceeds {fail_tol:.1e} at y={bad:.4g}: "
            "the envelope does not solve the effective spinor system accurately"
        )
    return rel


def solve_U1(dirac: DiracPointData, x_profiles: np.ndarray) -> np.ndarray:
    """Kernel-orthogonal x-solutions of the corrector equation, one row
    per x-profile row (build_G1).

    The frozen-y cell operator -dx^2 + V - mu* is diagonalized once at
    the extended cutoff, per Fourier-index parity (bloch.parity_block_eigh);
    each block's crossing eigenvector is dropped and each separable
    x-profile is solved in the remaining eigenbasis.
    """
    A, blocks = parity_block_eigh(dirac.pot_V, [np.pi], extended_cutoff(dirac.cutoff))
    mu = dirac.mu_star
    scale = 1.0 + abs(mu)
    # real and imaginary parts as rows of one real array: a real-by-complex
    # product's rounding follows the BLAS thread count, a real product's not
    F = np.vstack([x_profiles.real, x_profiles.imag])
    sols, perp = np.zeros_like(F), F.copy()
    for pos, evals, evecs in blocks:
        evals, evecs = evals[0], evecs[0]
        kernel_mask = np.abs(evals - mu) <= 1e-6 * scale
        if np.count_nonzero(kernel_mask) != 1:
            raise RuntimeError(
                f"expected a double eigenvalue at {mu:.9g}, one per parity block: a "
                f"block of {len(pos)} modes holds {np.count_nonzero(kernel_mask)} in its cluster"
            )
        lam = evals[~kernel_mask]
        spacing = np.min(np.abs(lam - mu))
        if spacing < 1e-3 * scale:
            off = lam[np.argmin(np.abs(lam - mu))]
            raise RuntimeError(
                f"corrector system near-singular: eigenvalue {off:.9g} lies "
                f"{spacing:.3e} from the crossing energy {mu:.9g}"
            )
        U, K = evecs[:, ~kernel_mask], evecs[:, kernel_mask]
        x = (F[:, pos] @ U / (lam - mu)) @ U.T
        sols[:, pos] = x - (x @ K) @ K.T
        perp[:, pos] -= (F[:, pos] @ K) @ K.T

    T = len(x_profiles)
    sols, perp = sols[:T] + 1j * sols[T:], perp[:T] + 1j * perp[T:]
    resid = sols @ A[0] - mu * sols - perp  # A is symmetric
    fnorm = np.linalg.norm(x_profiles, axis=1)
    res_max = float(np.max(np.linalg.norm(resid, axis=1) / (1.0 + fnorm)))
    if res_max > 1e-10:
        raise RuntimeError(f"corrector solve residual {res_max:.3e} above 1e-10")
    return sols


def evaluate_udelta(
    dirac: DiracPointData,
    profile: SpinorProfile,
    corrector: np.ndarray,
    delta: float,
    x_grid,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Samples of sqrt(delta)(U0 + delta U1) on an arbitrary grid.

    Returns (scaled field, U0 samples, U1 samples).  One corrector
    solution serves every delta.  The envelope is evaluated once and the
    carriers once per distinct cell offset of the grid; U0 and every U1
    term are built from those.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(
            f"delta must lie in (0, 1), got {delta}; the two-scale field "
            "degenerates at delta = 0 and no solve path exists there"
        )
    u0, u1 = _synthesise(dirac, profile, delta, x_grid, corrector)
    return np.sqrt(delta) * (u0 + delta * u1), u0, u1


def assemble_udelta(
    dirac: DiracPointData,
    profile: SpinorProfile,
    corrector: np.ndarray,
    delta: float,
    x_grid: np.ndarray,
) -> TwoScaleField:
    """Candidate soliton sqrt(delta) (U0 + delta U1) on the half-line x_grid.

    x_grid is Newton's operator's own grid (newton.discretize_operator),
    kept as the field's; the parity fixed by the sign of theta#, folded
    into the operator's first rows, extends the field to the full line.
    """
    samples, u0, _ = evaluate_udelta(dirac, profile, corrector, delta, x_grid=x_grid)
    return TwoScaleField(delta=float(delta), x_grid=x_grid, samples=samples, u0_samples=u0)


_EDGE_SKIP = 5


def residual_norm(op, u: np.ndarray) -> float:
    """Full-line discrete L2 norm of (-dx^2 + V + delta W - mu_delta) u - u^3.

    op is that operator (newton.discretize_operator) and u its samples on
    op's grid; the operator's first rows fold in the mirror image at 0.
    The last _EDGE_SKIP points are left out: their stencil reaches past,
    or lies next to, the Dirichlet cut at L.
    """
    return op.norm((op.apply(u) - u * u * u)[:-_EDGE_SKIP])


def fit_order(deltas, norms) -> float:
    """Least-squares slope of log(norm) against log(delta)."""
    deltas = np.asarray(deltas, dtype=float)
    norms = np.asarray(norms, dtype=float)
    # a set, not np.unique: its first call imports numpy.ma
    if len(set(deltas.tolist())) < 2:
        raise ValueError("order fit needs at least two distinct delta values")
    if np.any(norms <= 0.0) or np.any(deltas <= 0.0):
        raise ValueError("order fit needs positive deltas and norms")
    return float(np.polyfit(np.log(deltas), np.log(norms), 1)[0])
