"""Newton solver for the stationary lattice equation on a parity half-line.

The full-line problem (-d^2/dx^2 + V + delta W - mu_delta) u = u^3 is
reduced to [0, L] on a staggered grid x_i = (i + 1/2) h with a mirror
condition at 0 (even or odd, fixed by the sign of the gap coefficient)
and a Dirichlet cutoff at L.  The reduction removes the translation
zero mode exactly, so the Jacobian stays invertible at the soliton.
DiscreteOperator is the one record of that discretisation, built once
per delta: grid, h, mirror sign, potential and stencil; the two-scale
field, the residual, Newton, the Jacobian's eigenvalue and the error
norms all read them from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dgbtrf, dgbtrs, dstevd
# build_U0 is re-exported, not called: solbench/spans.py patches
# newton.build_U0 until a run record of the package's own replaces the spans
from .ansatz import TwoScaleField, build_U0  # noqa: F401
from .bloch import PeriodicPotential


# Lanczos steps before jacobian_min_eig gives up; a soliton Jacobian needs 15-30
_LANCZOS_MAX_STEPS = 500
# Ritz residual, relative to |theta|, at which jacobian_min_eig stops
_LANCZOS_RTOL = 1e-6


def grid_points(L: float, h: float) -> int:
    """round(L / h), the size of staggered_grid(L, h); a size numpy cannot
    address, an infinite one too, raises MemoryError as memory too small does."""
    if not 0 < h < L:
        raise ValueError("need 0 < h < L")
    points = L / h
    if not points * 8.0 <= np.iinfo(np.intp).max:
        raise MemoryError(f"a grid of {points:.3g} points exceeds any array")
    return round(points)


def staggered_grid(L: float, h: float) -> np.ndarray:
    """Half-line grid x_i = (i + 1/2) h covering [0, L]."""
    return (np.arange(grid_points(L, h)) + 0.5) * h


@dataclass
class SolitonField:
    samples: np.ndarray
    newton_history: list[float]


@dataclass
class DiscreteOperator:
    """Symmetric pentadiagonal form of -d^2/dx^2 + V + delta W - mu_delta
    on the half-line grid x_grid = staggered_grid(L, h).

    sign is the mirror parity at 0: +1 (even) for theta# > 0, -1 (odd)
    otherwise, as in homoclinic.SpinorProfile.evaluate.  potential,
    V + delta W - mu_delta, is diag less the stencil -d^2/dx^2.
    """

    x_grid: np.ndarray
    h: float
    sign: float
    potential: np.ndarray
    diag: np.ndarray
    off1: np.ndarray
    off2: np.ndarray

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.off1 * u[1:]
        out[1:] += self.off1 * u[:-1]
        out[:-2] += self.off2 * u[2:]
        out[2:] += self.off2 * u[:-2]
        return out

    def norm(self, v: np.ndarray) -> float:
        """Full-line discrete L2 norm of a half-line vector: both halves
        contribute equally."""
        return float(np.sqrt(2.0 * self.h * np.sum(v**2)))

    def factor_shifted(self, shift_diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """LU factors of A + diag(shift_diag), LAPACK band storage (dgbtrf).

        The two spare top rows of the 7-row band take the fill-in of
        partial pivoting.  A zero pivot raises LinAlgError.
        """
        ab = np.zeros((7, len(self.diag)), order="F")  # dgbtrf factors it in place
        ab[2, 2:] = self.off2
        ab[3, 1:] = self.off1
        ab[4] = self.diag + shift_diag
        ab[5, :-1] = self.off1
        ab[6, :-2] = self.off2
        lu, piv, info = dgbtrf(ab, 2, 2, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"singular matrix: zero pivot in row {info}")
        return lu, piv

    def solve_shifted(self, shift_diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve (A + diag(shift_diag)) w = rhs by a banded factorization."""
        lu, piv = self.factor_shifted(shift_diag)
        return dgbtrs(lu, 2, 2, rhs, piv)[0]


def discretize_operator(
    pot_V: PeriodicPotential,
    pot_W: PeriodicPotential,
    delta: float,
    mu_delta: float,
    L: float,
    h: float,
    theta_sharp: float,
) -> DiscreteOperator:
    """Fourth-order centered differences on staggered_grid(L, h) with the
    mirror condition at 0, its parity fixed by the sign of theta#.

    The staggered grid reflects exactly about 0: the ghost values at
    -h/2 and -3h/2 equal +-u(h/2) and +-u(3h/2), which folds into the
    first rows and keeps the matrix symmetric.  Rows beyond L are
    Dirichlet.  Fourth order keeps the operator's band-energy bias far
    below the delta-scaling effects measured downstream.
    """
    if h > 1.0 / 64.0:
        raise ValueError(f"grid spacing {h} too coarse to resolve the cell")
    x_grid = staggered_grid(L, h)
    n = len(x_grid)
    c0, c1, c2 = 2.5 / h**2, -4.0 / (3.0 * h**2), 1.0 / (12.0 * h**2)
    sign = 1.0 if theta_sharp > 0 else -1.0
    pot = pot_V(x_grid) + delta * pot_W(x_grid) - mu_delta
    diag = c0 + pot
    diag[0] += sign * c1
    off1 = np.full(n - 1, c1)
    off1[0] += sign * c2
    off2 = np.full(n - 2, c2)
    return DiscreteOperator(
        x_grid=x_grid, h=h, sign=sign, potential=pot, diag=diag, off1=off1, off2=off2
    )


def newton_solve(
    op: DiscreteOperator, initial: np.ndarray, tol: float, max_iters: int
) -> SolitonField:
    """Newton iteration on F(u) = A u - u^3 from the two-scale initial guess.

    The Jacobian A - 3 diag(u^2) is symmetric banded and solved
    directly at every step.  Collapse to zero and divergence are errors,
    reported with the residual history.
    """
    u = np.asarray(initial, dtype=float).copy()
    if len(u) != len(op.x_grid):
        raise ValueError("initial guess not sampled on the operator grid")
    scale0 = op.norm(u)
    history = []
    for _ in range(max_iters):
        r = op.apply(u) - u * u * u
        rn = op.norm(r)
        history.append(rn)
        if rn <= tol:
            break
        if not np.isfinite(rn) or (len(history) >= 3 and rn > 10.0 * history[0]):
            raise RuntimeError(
                f"Newton divergence, residual history {history}; "
                "try a smaller delta or a larger domain"
            )
        du = op.solve_shifted(-3.0 * u**2, -r)
        u = u + du
    else:
        r = op.apply(u) - u * u * u
        rn = op.norm(r)
        history.append(rn)
    if not history[-1] <= tol:  # a NaN residual fails too
        raise RuntimeError(
            f"Newton did not reach residual {tol:.1e} in {max_iters} "
            f"iterations; history {history}"
        )
    un = op.norm(u)
    if scale0 > 0.0 and un < 0.5 * scale0:
        raise RuntimeError(
            f"collapse toward the trivial solution: |u| = {un:.3e} vs "
            f"initial {scale0:.3e}"
        )
    if scale0 == 0.0:
        raise RuntimeError("trivial solution: zero initial guess converges to zero")
    return SolitonField(samples=u, newton_history=history)


def _tridiagonal_eigh(alpha: list[float], beta: list[float]):
    """Eigenpairs of the symmetric tridiagonal matrix with diagonal alpha
    and off-diagonal beta, as scipy.linalg.eigh_tridiagonal gives them:
    LAPACK dstevd, its driver for all eigenpairs, and its 1x1 shortcut."""
    d, e = np.asarray_chkfinite(alpha, dtype=float), np.asarray_chkfinite(beta, dtype=float)
    if len(d) == 1:
        return d, np.ones((1, 1))
    theta, s, info = dstevd(d, e, compute_v=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd did not converge (LAPACK info={info})")
    return theta, s


def jacobian_min_eig(op: DiscreteOperator, u: np.ndarray) -> float:
    """Smallest-magnitude eigenvalue of the Jacobian A - 3 diag(u^2).

    Shift-invert Lanczos at 0: one banded LU of J, then the three-term
    recurrence on J^{-1} without reorthogonalisation, from a deterministic
    start vector so runs reproduce bit-for-bit.  The largest-|theta| Ritz
    pair of the tridiagonal T_j is checked at every step and accepted once
    its residual |beta_j s_j| is at most _LANCZOS_RTOL |theta|.  The
    eigenvalue error is quadratic in that residual, so 1e-6 leaves it at
    the rounding of the factorization itself: against a 1e-8 stop, lambda
    moves 1.5e-13 to 1.3e-12 relative on the test, benchmark and default
    configs, the size of its gap to another LU (SuperLU), and takes 3-5
    fewer solves.  A zero pivot or no convergence within
    _LANCZOS_MAX_STEPS steps raises a RuntimeError.
    """
    n = len(u)
    try:
        lu, piv = op.factor_shifted(-3.0 * u**2)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"jacobian_min_eig: N = {n}, 0 steps: {exc}") from None
    q = np.cos(0.37 * np.arange(n)) + u / (1.0 + np.max(np.abs(u)))
    q /= np.linalg.norm(q)
    q_prev = np.zeros(n)
    alpha, beta = [], []
    for step in range(1, _LANCZOS_MAX_STEPS + 1):
        w = dgbtrs(lu, 2, 2, q, piv)[0]
        alpha.append(float(q @ w))
        w -= alpha[-1] * q
        if beta:
            w -= beta[-1] * q_prev
        b = float(np.linalg.norm(w))
        theta, s = _tridiagonal_eigh(alpha, beta)
        i = int(np.argmax(np.abs(theta)))
        if abs(b * s[-1, i]) <= _LANCZOS_RTOL * abs(theta[i]):
            return float(1.0 / theta[i])
        beta.append(b)
        q_prev, q = q, w / b
    raise RuntimeError(
        f"jacobian_min_eig: N = {n}, no converged eigenvalue after {step} Lanczos steps"
    )


def error_vs_ansatz(
    op: DiscreteOperator, u: np.ndarray, field: TwoScaleField
) -> tuple[float, float]:
    """Full-line L2 and discrete-H2 distances of u to the leading-order field.

    The comparison field is sqrt(delta) U0 from the two-scale field the
    solver started from, sampled on op's grid.  Discrete H2 norm:
    sqrt(|w|_L2^2 + |D2_h w|_L2^2), with -D2_h w = op.apply(w) -
    op.potential * w: the solver's own fourth-order stencil, mirrored at
    0 and cut at L as in Newton.
    """
    w = u - np.sqrt(field.delta) * field.u0_samples
    l2 = op.norm(w)
    return l2, float(np.hypot(l2, op.norm(op.apply(w) - op.potential * w)))
