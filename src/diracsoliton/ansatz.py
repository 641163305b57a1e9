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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import (
    FourierCutoff,
    assemble_coefficient_matrix,
    cell_offsets,
    coupling_matrix,
    fourier_eval,
)
from .dirac import DiracPointData
from .homoclinic import SpinorProfile, _rhs


@dataclass
class TwoScaleField:
    """Real candidate soliton sqrt(delta) (U0 + delta U1) on a parity half-line.

    x_grid is the array of Newton's operator it was synthesised on, not
    a copy; the operator also holds the mirror sign that extends the
    field to the full line.  samples holds the scaled field, u0_samples
    the unscaled U0.
    """

    delta: float
    x_grid: np.ndarray
    samples: np.ndarray
    u0_samples: np.ndarray


@dataclass
class SeparableForcing:
    """Corrector forcing G1 = H + c.c., H(x, y) = sum_j f_j(x) g_j(y), four terms.

    x_profiles[j] holds the plane-wave coefficients of f_j at the
    extended cutoff, entry M_ext + m that of e^{i pi x} e^{2 pi i m x}.
    g_j(y) = y_factors[j](psi, dpsi) takes samples of the envelope
    Psi-(y) and of dy Psi-(y), so one evaluation of profile feeds all
    four terms.  kernel holds the carriers Phi-, Phi+ (rows g1, g2) at
    the same cutoff: the kernel of the corrector's cell operator.
    """

    x_profiles: np.ndarray
    y_factors: list
    cutoff_ext: FourierCutoff
    kernel: np.ndarray
    profile: SpinorProfile


def extended_cutoff(cut: FourierCutoff) -> FourierCutoff:
    """Cutoff holding triple products of base-cutoff pseudo-periodic factors."""
    return FourierCutoff(3 * cut.M + 2)


def _spinor(params, u, v) -> tuple[np.ndarray, np.ndarray]:
    """Psi- = (u + iv)/2 and dy Psi- from the envelope vector field."""
    du, dv = _rhs(params, u, v)
    return 0.5 * (u + 1j * v), 0.5 * (du + 1j * dv)


def _synthesise(
    dirac: DiracPointData,
    profile: SpinorProfile,
    delta: float,
    x_grid,
    corrector: CorrectorSolution | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """U0 samples, and U1 samples when a corrector is given.

    Every carrier is e^{i pi x} times a 1-periodic function, so the
    carriers are summed once at the grid's distinct cell offsets, as one
    table of g1 and the corrector x-solutions, and gathered term by term;
    the Bloch phase e^{i pi n} = (-1)^n of the cell n = floor(x) multiplies
    last.  U1 = 2 Re(sum_j s_j(x) g_j(y)), s_j the x-solution of H's
    term j: real by construction, as U0 is.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    u, v = profile.evaluate(delta * x_grid)
    if corrector is None:
        carriers = dirac.g1[None, :]
    else:
        carriers = np.vstack([corrector.forcing.kernel[0], corrector.x_solutions])
    r, where, n = cell_offsets(x_grid)
    where = where.reshape(x_grid.shape)
    sign = (1.0 - 2.0 * (n % 2)).reshape(x_grid.shape)  # e^{i pi n}, exactly
    table = fourier_eval(carriers, np.pi, r)
    phi = table[0][where] * sign
    u0 = u * phi.real - v * phi.imag
    if corrector is None:
        return u0, None
    psi, dpsi = _spinor(profile.params, u, v)
    field1 = np.zeros(x_grid.shape, dtype=complex)
    for row, g in zip(table[1:], corrector.forcing.y_factors):
        field1 += row[where] * g(psi, dpsi)
    return u0, 2.0 * sign * field1.real


def build_U0(
    dirac: DiracPointData, profile: SpinorProfile, delta: float, x_grid
) -> np.ndarray:
    """Leading-order field U0(x, delta x) = 2 Re(Psi-(delta x) Phi-(x)).

    Real by construction since Psi+ = conj(Psi-) and Phi+ = conj(Phi-).
    """
    return _synthesise(dirac, profile, delta, x_grid, None)[0]


def build_G1(dirac: DiracPointData, profile: SpinorProfile) -> SeparableForcing:
    """Corrector forcing G1 = H + c.c., its four Phi- terms H.

    With a = Psi- Phi- (U0 = a + c.c.), H holds one of each conjugate
    pair: 2 dxPhi- dyPsi- from 2 dx dy U0, (mu# - W) Phi- Psi- from
    (mu# - W) U0, and 3 |Phi-|^2 Phi- |Psi-|^2 Psi- and Phi-^3 Psi-^3 from
    U0^3 = 3 |a|^2 a + a^3 + c.c.  Slow-variable derivatives come from the
    envelope vector field, not differences; W multiplies through
    bloch.coupling_matrix.  The coefficients are real and Phi+ is g1
    index-flipped, so conj(Phi-) = Phi+ and |Phi-|^2 Phi- is P^2 Q.
    """
    mu_sharp = profile.params.mu_sharp
    cut_ext = extended_cutoff(dirac.cutoff)
    M, M_ext = dirac.cutoff.M, cut_ext.M
    kernel = np.stack([_pad_modes(g, M, M_ext) for g in (dirac.g1, dirac.g2)])
    P, Q = kernel
    # W Phi reaches mode |m| + j from carrier mode m; past M_ext it would be lost.
    # Within it, mode M_ext of every Phi- term is zero, so _conj_flip is exact
    modes = np.flatnonzero(np.any(kernel != 0.0, axis=0)) - M_ext
    reach = dirac.pot_W.max_index + int(np.max(np.abs(modes)))
    if reach > M_ext:
        raise RuntimeError(f"W Phi reaches mode {reach}, beyond the extended cutoff {M_ext}")
    dx = 1j * np.pi * (2 * cut_ext.indices() + 1)
    C = coupling_matrix(dirac.pot_W.coeffs, cut_ext.size)

    def cube(a, b, c):
        # e^{3 i pi x} = e^{i pi x} e^{2 pi i x}: one mode up, support within 3M + 1
        return np.convolve(np.convolve(a, b), c)[2 * M_ext - 1 : 4 * M_ext]

    x_profiles = np.stack([
        dx * P,  # 2 dxPhi- * dyPsi-
        mu_sharp * P - C @ P,  # (mu# - W) Phi- * Psi-
        cube(P, P, Q),  # 3 |Phi-|^2 Phi- * |Psi-|^2 Psi-
        cube(P, P, P),  # Phi-^3 * Psi-^3
    ])
    y_factors = [
        lambda p, dp: 2.0 * dp,
        lambda p, dp: p,
        lambda p, dp: 3.0 * np.abs(p) ** 2 * p,
        lambda p, dp: p**2 * p,
    ]
    return SeparableForcing(
        x_profiles=x_profiles,
        y_factors=y_factors,
        cutoff_ext=cut_ext,
        kernel=kernel,
        profile=profile,
    )


def _pad_modes(c: np.ndarray, M_from: int, M_to: int) -> np.ndarray:
    out = np.zeros(2 * M_to + 1, dtype=c.dtype)
    out[M_to - M_from : M_to + M_from + 1] = c
    return out


def _conj_flip(c: np.ndarray) -> np.ndarray:
    """Coefficients of conj(f) from those of f, along the last axis:
    c_n -> conj(c_{-n-1}).  Mode M_ext of f has no image and must be zero."""
    out = np.zeros_like(c)
    out[..., :-1] = np.conj(c[..., -2::-1])
    return out


def solvability_check(
    forcing: SeparableForcing, y_grid, fail_tol: float | None = None
) -> float:
    """Largest kernel projection of the forcing, relative to its size.

    The forcing is the whole real G1, at each y H plus its conj-flip.
    For an envelope that solves the effective spinor system it is
    orthogonal to the carrier pair at every y, which is exactly the
    condition making the corrector solvable.  dy Psi comes from
    differences of the envelope's samples at y +- s, y +- 2s with
    s = 1e-3 / decay_rate, so an envelope that does not solve the
    system shows in the projection.
    """
    env = forcing.profile
    y_grid = np.asarray(y_grid, dtype=float)
    # dy Psi from fourth-order differences of evaluate: taken from the
    # vector field instead, any (u, v) would project to zero
    s = 1e-3 / env.params.decay_rate
    stencil = np.add.outer(s * np.arange(-2.0, 3.0), y_grid)
    u, v = (w.reshape(stencil.shape) for w in env.evaluate(stencil.ravel()))
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * s)
    psi = 0.5 * (u[2] + 1j * v[2])
    dpsi = 0.5 * (weights @ u + 1j * (weights @ v))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        H = np.stack([g(psi, dpsi) for g in forcing.y_factors], axis=1) @ forcing.x_profiles
        G1 = H + _conj_flip(H)
        proj = np.max(np.abs(G1 @ forcing.kernel.T), axis=1)  # the carriers are real
        scale = np.max(np.linalg.norm(G1, axis=1))
    if not (np.isfinite(scale) and np.all(np.isfinite(proj))):
        raise ValueError(
            f"corrector: the forcing's size {scale:.3g} or its kernel projection "
            f"{np.max(proj):.3g} is not a finite number: "
            f"theta#={env.params.theta_sharp:.6g}, decay rate {env.params.decay_rate:.6g}"
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


@dataclass
class CorrectorSolution:
    """Kernel-orthogonal x-solutions of the corrector equation, per term."""

    x_solutions: np.ndarray
    forcing: SeparableForcing


def solve_U1(
    forcing: SeparableForcing, dirac: DiracPointData
) -> CorrectorSolution:
    """Invert the frozen-y cell operator on the kernel complement.

    The operator -dx^2 + V - mu* is diagonalized once at the extended
    cutoff; the degenerate crossing eigenspace is dropped and each
    separable x-profile is solved in the remaining eigenbasis.
    """
    M_ext = forcing.cutoff_ext.M
    A = assemble_coefficient_matrix(dirac.pot_V.coeffs, np.pi, M_ext)
    evals, evecs = np.linalg.eigh(A)
    mu = dirac.mu_star
    scale = 1.0 + abs(mu)
    kernel_mask = np.abs(evals - mu) <= 1e-6 * scale
    if int(np.sum(kernel_mask)) != 2:
        raise RuntimeError(
            f"expected a double eigenvalue at {mu:.9g}, found "
            f"{int(np.sum(kernel_mask))} eigenvalues in its cluster"
        )
    rest = evals[~kernel_mask]
    spacing = np.min(np.abs(rest - mu))
    if spacing < 1e-3 * scale:
        off = rest[np.argmin(np.abs(rest - mu))]
        raise RuntimeError(
            f"corrector system near-singular: eigenvalue {off:.9g} lies "
            f"{spacing:.3e} from the crossing energy {mu:.9g}"
        )
    U = evecs[:, ~kernel_mask]
    K = evecs[:, kernel_mask]
    lam = evals[~kernel_mask]

    F = forcing.x_profiles
    coeffs = np.conj(U).T @ F.T
    sols = (U @ (coeffs / (lam - mu)[:, None])).T
    sols -= (K @ (np.conj(K).T @ sols.T)).T

    perp = F - (K @ (np.conj(K).T @ F.T)).T
    resid = (A @ sols.T).T - mu * sols - perp
    fnorm = np.linalg.norm(F, axis=1)
    res_max = float(np.max(np.linalg.norm(resid, axis=1) / (1.0 + fnorm)))
    if res_max > 1e-10:
        raise RuntimeError(f"corrector solve residual {res_max:.3e} above 1e-10")
    return CorrectorSolution(x_solutions=sols, forcing=forcing)


def evaluate_udelta(
    dirac: DiracPointData,
    profile: SpinorProfile,
    corrector: CorrectorSolution,
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
    corrector: CorrectorSolution,
    delta: float,
    x_grid: np.ndarray,
) -> TwoScaleField:
    """Candidate soliton sqrt(delta) (U0 + delta U1) on the half-line x_grid.

    x_grid is Newton's operator's own grid (newton.discretize_operator),
    kept as the field's; the parity fixed by the sign of theta#, the
    operator's mirror sign, extends the field to the full line.
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
