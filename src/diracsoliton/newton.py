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


# Lanczos steps before jacobian_min_eig gives up; a soliton Jacobian needs
# 3-4 at the NLD-predicted shift, 15-30 at shift 0
_LANCZOS_MAX_STEPS = 500
# Ritz residual, relative to |theta|, at which jacobian_min_eig stops
_LANCZOS_RTOL = 1e-6
_EPS = np.finfo(float).eps


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

    def inf_norm(self, shift_diag: np.ndarray | float = 0.0) -> float:
        """Bound on the infinity norm of A + diag(shift_diag): its largest
        |diagonal| plus twice the largest |off-diagonal| of each band."""
        return float(
            np.max(np.abs(self.diag + shift_diag))
            + 2.0 * np.max(np.abs(self.off1), initial=0.0)
            + 2.0 * np.max(np.abs(self.off2), initial=0.0)
        )

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

    def inertia_parity(self, shift_diag: np.ndarray) -> int:
        """Parity of the number of negative eigenvalues of the symmetric
        A + diag(shift_diag): of the sign of its determinant, read from its
        banded LU as the negative entries of U's diagonal (band row 4) plus
        the row swaps."""
        lu, piv = self.factor_shifted(shift_diag)
        swaps = np.count_nonzero(piv != np.arange(len(piv)))
        return int(np.count_nonzero(lu[4] < 0.0) + swaps) % 2


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
    directly at every step.  The iteration stops once the residual is
    at most tol or the rounding floor eps ||A||_inf ||u||, whichever is
    larger.  The floor is the scale of the rounding of A u, whose
    stencil weights grow as 1/h^2: the residual stalls at 0.22 of it
    (measured at h = 1/64 to 1/1024 on the default and free lattices),
    so no tol below it can be met, and the default newton_tol = 1e-10
    lies below it from h = 1/256 on.  Collapse to zero and divergence
    are errors, reported with the residual history.
    """
    u = np.asarray(initial, dtype=float).copy()
    if len(u) != len(op.x_grid):
        raise ValueError("initial guess not sampled on the operator grid")
    scale0 = op.norm(u)
    rounding = _EPS * op.inf_norm()
    history = []
    for step in range(max_iters + 1):
        r = op.apply(u) - u * u * u
        rn = op.norm(r)
        history.append(rn)
        stop = max(tol, rounding * op.norm(u))
        if rn <= stop or step == max_iters:
            break
        if not np.isfinite(rn) or (len(history) >= 3 and rn > 10.0 * history[0]):
            raise RuntimeError(
                f"Newton divergence, residual history {history}; "
                "try a smaller delta or a larger domain"
            )
        du = op.solve_shifted(-3.0 * u**2, -r)
        u = u + du
    if not rn <= stop:  # a NaN residual fails too
        raise RuntimeError(
            f"Newton did not reach residual {stop:.1e} (newton_tol {tol:.1e} or the "
            f"rounding floor, whichever is larger) in {max_iters} iterations; "
            f"history {history}"
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


class UncertifiedEigenvalue(RuntimeError):
    """jacobian_min_eig's eigenvalue lam, with an even number of
    eigenvalues, so at least one more, as near 0 as it."""

    def __init__(self, message: str, lam: float):
        super().__init__(message)
        self.lam = lam


def jacobian_min_eig(op: DiscreteOperator, u: np.ndarray, shift: float) -> float:
    """Eigenvalue of the Jacobian J = A - 3 diag(u^2) nearest 0, sought
    next to shift and certified nearest 0.

    Shift-invert Lanczos (Ericsson & Ruhe, Math. Comp. 35, 1980): one
    banded LU of J - shift I, then the three-term recurrence on its
    inverse without reorthogonalisation, from a deterministic start
    vector so runs reproduce bit-for-bit.  The largest-|theta| Ritz pair
    of the tridiagonal T_j is checked at every step and accepted once
    its residual |beta_j s_j| is at most _LANCZOS_RTOL |theta|; then
    lambda = shift + 1/theta is the eigenvalue nearest shift.  The
    eigenvalue error is quadratic in that residual, so 1e-6 leaves it at
    the rounding of the factorization itself.  At shift = delta nu, nu
    the NLD linearisation's eigenvalue on Y, lambda is isolated at once:
    3-4 solves, against 17-27 at shift 0, and lambda moves at most 6e-12
    relative between the two on the test, benchmark and default configs.

    The recurrence cannot see an eigenvalue nearer 0 that lies farther
    from shift: a neighbour across 0, or an edge state at a mid-cell cut.
    So lambda is certified.  By Sylvester's law of inertia the sign of
    det(J - tI), that of U's diagonal times (-1)^(row swaps) in J - tI's
    banded LU, is the parity of the number of eigenvalues below t
    (Parlett, The Symmetric Eigenvalue Problem, 1998).  Two more
    factorizations, at t = -r and t = r, give the parity of the count in
    (-r, r), which must be odd.  r = |lambda| + 10 eps ||J||_inf: the
    margin is twice the banded LU's backward error (kl + ku + 1) eps ||J||
    (no pivot growth), once for lambda's factorization and once for the
    check's.  One more eigenvalue in (-r, r) makes the count even and
    raises UncertifiedEigenvalue; the check cannot catch two more.

    A zero pivot or no convergence within _LANCZOS_MAX_STEPS steps
    raises a RuntimeError too.
    """
    n = len(u)
    shift_diag = -3.0 * u**2
    try:
        lu, piv = op.factor_shifted(shift_diag - shift)
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
            break
        beta.append(b)
        q_prev, q = q, w / b
    else:
        raise RuntimeError(
            f"jacobian_min_eig: N = {n}, no converged eigenvalue after {step} Lanczos steps"
        )
    lam = float(shift + 1.0 / theta[i])
    del lu, piv, q, q_prev, w  # the check's factorizations reuse their memory
    r = abs(lam) + 10.0 * _EPS * op.inf_norm(shift_diag)
    try:
        below = [op.inertia_parity(shift_diag - t) for t in (-r, r)]
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"jacobian_min_eig: N = {n}, the check at +-{r:.6g}: {exc}") from None
    if below[0] == below[1]:
        raise UncertifiedEigenvalue(
            f"jacobian_min_eig: N = {n}: lambda = {lam:.6g}, the eigenvalue nearest "
            f"the shift {shift:.6g}, is not alone nearest 0: the eigenvalue counts "
            f"below -r and r = {r:.6g} have parities {below[0]} and {below[1]}, so "
            "(-r, r) holds an even number",
            lam,
        )
    return lam


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
