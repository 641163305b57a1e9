"""Newton solver for the stationary lattice equation on a parity half-line.

The full-line problem (-d^2/dx^2 + V + delta W - mu_delta) u = u^3 is
reduced to [0, L] on a staggered grid x_i = (i + 1/2) h with a mirror
condition at 0 (even or odd, fixed by the sign of the gap coefficient)
and a Dirichlet cutoff at L.  The reduction removes the translation
zero mode exactly, so the Jacobian stays invertible at the soliton.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dgbtrf, dgbtrs

# staggered_grid is re-exported as the solver grid; build_U0 stays importable
# here because solbench/spans.py patches newton.build_U0
from .ansatz import TwoScaleField, build_U0, staggered_grid  # noqa: F401
from .bloch import PeriodicPotential


# Lanczos steps before jacobian_min_eig gives up; a soliton Jacobian needs 20-40
_LANCZOS_MAX_STEPS = 500


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


def parity_from_theta(theta_sharp: float) -> Parity:
    return Parity.EVEN if theta_sharp > 0 else Parity.ODD


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 25
    tol: float = 1e-10

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class SolitonField:
    delta: float
    mu_delta: float
    x_grid: np.ndarray
    samples: np.ndarray
    parity: Parity
    newton_history: list[float] = field(default_factory=list)


@dataclass
class DiscreteOperator:
    """Symmetric pentadiagonal form of -d^2/dx^2 + V + delta W - mu_delta."""

    x_grid: np.ndarray
    h: float
    diag: np.ndarray
    off1: np.ndarray
    off2: np.ndarray
    parity: Parity

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.off1 * u[1:]
        out[1:] += self.off1 * u[:-1]
        out[:-2] += self.off2 * u[2:]
        out[2:] += self.off2 * u[:-2]
        return out

    def factor_shifted(self, shift_diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """LU factors of A + diag(shift_diag), LAPACK band storage (dgbtrf).

        The two spare top rows of the 7-row band take the fill-in of
        partial pivoting.  A zero pivot raises LinAlgError.
        """
        ab = np.zeros((7, len(self.diag)))
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
    x_grid,
    parity: Parity,
) -> DiscreteOperator:
    """Fourth-order centered differences with the mirror condition at 0.

    The staggered grid reflects exactly about 0: the ghost values at
    -h/2 and -3h/2 equal +-u(h/2) and +-u(3h/2), which folds into the
    first rows and keeps the matrix symmetric.  Rows beyond L are
    Dirichlet.  Fourth order keeps the operator's band-energy bias far
    below the delta-scaling effects measured downstream.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    h = float(x_grid[1] - x_grid[0])
    if h > 1.0 / 64.0 + 1e-15:
        raise ValueError(f"grid spacing {h} too coarse to resolve the cell")
    if abs(x_grid[0] - 0.5 * h) > 1e-12 * h:
        raise ValueError("x_grid must be staggered: first point at h/2")
    # rounding in (i + 1/2) h grows with |x|, so the tolerance scales with the extent
    if np.max(np.abs(np.diff(x_grid) - h)) > 1e-12 * (h + x_grid[-1]):
        raise ValueError("x_grid must be uniform")
    n = len(x_grid)
    c0, c1, c2 = 2.5 / h**2, -4.0 / (3.0 * h**2), 1.0 / (12.0 * h**2)
    sign = 1.0 if parity is Parity.EVEN else -1.0
    pot = pot_V(x_grid) + delta * pot_W(x_grid) - mu_delta
    diag = c0 + pot
    diag[0] += sign * c1
    off1 = np.full(n - 1, c1)
    off1[0] += sign * c2
    off2 = np.full(n - 2, c2)
    return DiscreteOperator(
        x_grid=x_grid, h=h, diag=diag, off1=off1, off2=off2, parity=parity
    )


def _resid_norm(op: DiscreteOperator, r: np.ndarray) -> float:
    # full-line discrete L2: both halves contribute equally
    return float(np.sqrt(2.0 * op.h * np.sum(r**2)))


def newton_solve(
    op: DiscreteOperator,
    delta: float,
    mu_delta: float,
    initial: np.ndarray,
    cfg: NewtonConfig,
) -> SolitonField:
    """Newton iteration on F(u) = A u - u^3 from the two-scale initial guess.

    The Jacobian A - 3 diag(u^2) is symmetric banded and solved
    directly at every step.  Collapse to zero and divergence are errors,
    reported with the residual history.
    """
    u = np.asarray(initial, dtype=float).copy()
    if len(u) != len(op.x_grid):
        raise ValueError("initial guess not sampled on the operator grid")
    scale0 = float(np.sqrt(2.0 * op.h * np.sum(u**2)))
    history = []
    for _ in range(cfg.max_iters):
        r = op.apply(u) - u**3
        rn = _resid_norm(op, r)
        history.append(rn)
        if rn <= cfg.tol:
            break
        if not np.isfinite(rn) or (len(history) >= 3 and rn > 10.0 * history[0]):
            raise RuntimeError(
                f"Newton divergence, residual history {history}; "
                "try a smaller delta or a larger domain"
            )
        du = op.solve_shifted(-3.0 * u**2, -r)
        u = u + du
    else:
        r = op.apply(u) - u**3
        rn = _resid_norm(op, r)
        history.append(rn)
    if not history[-1] <= cfg.tol:  # a NaN residual fails too
        raise RuntimeError(
            f"Newton did not reach residual {cfg.tol:.1e} in {cfg.max_iters} "
            f"iterations; history {history}"
        )
    un = float(np.sqrt(2.0 * op.h * np.sum(u**2)))
    if scale0 > 0.0 and un < 0.5 * scale0:
        raise RuntimeError(
            f"collapse toward the trivial solution: |u| = {un:.3e} vs "
            f"initial {scale0:.3e}"
        )
    if scale0 == 0.0:
        raise RuntimeError("trivial solution: zero initial guess converges to zero")
    return SolitonField(
        delta=float(delta),
        mu_delta=float(mu_delta),
        x_grid=op.x_grid,
        samples=u,
        parity=op.parity,
        newton_history=history,
    )


def jacobian_min_eig(op: DiscreteOperator, u: np.ndarray) -> float:
    """Smallest-magnitude eigenvalue of the Jacobian A - 3 diag(u^2).

    Shift-invert Lanczos at 0: one banded LU of J, then the three-term
    recurrence on J^{-1} without reorthogonalisation, from a deterministic
    start vector so runs reproduce bit-for-bit.  The largest-|theta| Ritz
    pair of the tridiagonal T_j is checked at every step and accepted once
    its residual |beta_j s_j| is below 1e-8 |theta|.  The eigenvalue error
    is quadratic in that residual: a tighter stop moves 1/theta by about
    1e-15 relative, far below the rounding of the factorization itself
    (another LU, SuperLU, gives lambda 1e-13 relative apart).  A zero pivot
    or no convergence within _LANCZOS_MAX_STEPS steps raises a RuntimeError.
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
        theta, s = eigh_tridiagonal(np.array(alpha), np.array(beta))
        i = int(np.argmax(np.abs(theta)))
        if abs(b * s[-1, i]) <= 1e-8 * abs(theta[i]):
            return float(1.0 / theta[i])
        beta.append(b)
        q_prev, q = q, w / b
    raise RuntimeError(
        f"jacobian_min_eig: N = {n}, no converged eigenvalue after {step} Lanczos steps"
    )


def error_vs_ansatz(sol: SolitonField, field: TwoScaleField) -> tuple[float, float]:
    """Full-line L2 and discrete-H2 distances to the leading-order field.

    The comparison field is sqrt(delta) U0 from the two-scale field the
    solver started from, sampled on the same grid.  Discrete H2 norm:
    sqrt(|w|_L2^2 + |D2_h w|_L2^2) with the mirrored three-point second
    difference (second order; the solver's stencil is the five-point,
    fourth-order one).
    """
    a = np.sqrt(sol.delta) * field.u0_samples
    w = sol.samples - a
    h = float(sol.x_grid[1] - sol.x_grid[0])
    sign = 1.0 if sol.parity is Parity.EVEN else -1.0
    ghost = sign * w[0]
    lap = np.empty_like(w)
    lap[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h**2
    lap[0] = (ghost - 2.0 * w[0] + w[1]) / h**2
    lap[-1] = (w[-2] - 2.0 * w[-1]) / h**2
    l2sq = 2.0 * h * np.sum(w**2)
    h2 = float(np.sqrt(l2sq + 2.0 * h * np.sum(lap**2)))
    return float(np.sqrt(l2sq)), h2
