"""Plane-wave discretization of the Floquet-Bloch eigenvalue problem.

The periodic operator H(k) = -(d/dx + ik)^2 + P acts on 1-periodic
functions p(x) = sum_m p_m e^{2 pi i m x}.  In that basis the kinetic
part is diagonal, (2 pi m + k)^2, and a cosine potential
P(x) = sum_j c_j cos(2 pi j x) couples modes m and m' with weight
c_{|m - m'|} / 2.  Truncating to |m| <= M gives a real symmetric
matrix whose eigenpairs approximate the dispersion bands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ParityClass(enum.Enum):
    """Index-parity class of a cosine potential."""

    EVEN_INDEX = "even"
    ODD_INDEX = "odd"


@dataclass(frozen=True)
class PeriodicPotential:
    """Finite cosine series P(x) = sum_m coeffs[m] * cos(2 pi m x).

    EVEN_INDEX potentials carry only even cosine indices and satisfy
    P(x + 1/2) = P(x); ODD_INDEX potentials carry only odd indices and
    satisfy P(x + 1/2) = -P(x).
    """

    coeffs: dict[int, float]
    parity_class: ParityClass

    def __post_init__(self):
        clean = {}
        for m, amp in self.coeffs.items():
            m = int(m)
            amp = float(amp)
            if m <= 0:
                raise ValueError(f"cosine index must be a positive integer, got {m}")
            if not np.isfinite(amp):
                raise ValueError(f"amplitude for index {m} is not finite")
            if self.parity_class is ParityClass.EVEN_INDEX and m % 2 != 0 and amp != 0.0:
                raise ValueError(f"even-index potential has odd index {m}")
            if self.parity_class is ParityClass.ODD_INDEX and m % 2 != 1 and amp != 0.0:
                raise ValueError(f"odd-index potential has even index {m}")
            if amp != 0.0:
                clean[m] = amp
        object.__setattr__(self, "coeffs", clean)

    @property
    def max_index(self) -> int:
        return max(self.coeffs, default=0)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for m, amp in self.coeffs.items():
            out += amp * np.cos(2.0 * np.pi * m * x)
        return out


@dataclass(frozen=True)
class FourierCutoff:
    """Retained plane-wave indices m in {-M, ..., M}."""

    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("cutoff M must be a positive integer")

    @property
    def size(self) -> int:
        return 2 * self.M + 1

    def indices(self) -> np.ndarray:
        return np.arange(-self.M, self.M + 1)


@dataclass
class BandSweep:
    """Eigenpairs of the truncated H(k) at each k_grid[i]: ascending
    eigenvalues[i], and in eigenvectors[i][:, n] the l2-unit Fourier
    coefficients (p_{n,m})_{|m|<=M} of the n-th periodic eigenfunction."""

    k_grid: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def band(self, n: int) -> np.ndarray:
        """Values of the n-th band (0-based) over the sweep grid."""
        return self.eigenvalues[:, n]


def _check_cutoff(pot: PeriodicPotential, cut: FourierCutoff):
    if pot.coeffs and cut.M < pot.max_index + 2:
        raise ValueError(
            f"cutoff M={cut.M} too small for potential with max cosine index "
            f"{pot.max_index}; need M >= {pot.max_index + 2}"
        )


def coupling_matrix(coeffs: dict[int, float], size: int) -> np.ndarray:
    """Coefficient-space multiplication operator of sum_j coeffs[j] cos(2 pi j x).

    On size consecutive plane-wave modes: amp_j / 2 on the j-th
    off-diagonals (2M + 1 modes for the cutoff |m| <= M).
    """
    C = np.zeros((size, size))
    for j, amp in coeffs.items():
        if j < size and amp != 0.0:
            off = 0.5 * amp
            idx = np.arange(size - j)
            C[idx, idx + j] += off
            C[idx + j, idx] += off
    return C


def conj_flip(c: np.ndarray) -> np.ndarray:
    """Coefficients of conj(f) from those of f = e^{i pi x} sum_n c_n
    e^{2 pi i n x}, along the last axis: c_n -> conj(c_{-n-1}).  For real
    c that is also f(-x).  Mode M has no image and is dropped."""
    out = np.zeros_like(c)
    out[..., :-1] = np.conj(c[..., -2::-1])
    return out


def assemble_coefficient_matrix(coeffs: dict[int, float], k: float, M: int) -> np.ndarray:
    """Matrix of -(d/dx+ik)^2 + sum_j coeffs[j] cos(2 pi j x), any index mix."""
    m = np.arange(-M, M + 1)
    A = coupling_matrix(coeffs, 2 * M + 1)
    A[np.diag_indices_from(A)] = (2.0 * np.pi * m + k) ** 2
    return A


def assemble_fb_matrix(pot: PeriodicPotential, k: float, cut: FourierCutoff) -> np.ndarray:
    """Truncated Floquet-Bloch matrix; real symmetric by construction."""
    _check_cutoff(pot, cut)
    return assemble_coefficient_matrix(pot.coeffs, k, cut.M)


def parity_block_eigh(pot: PeriodicPotential, k_grid, cut: FourierCutoff):
    """Eigenpairs of H(k) for an even-index V, one parity block at a time.

    V couples mode m only to m +- 2j, so its cross entries between modes
    of even and of odd index are exact zeros by assembly.  Returns the
    stacked matrices H(k) and, for the even-index then the odd-index
    modes, (their rows in H, ascending eigenvalues (K, n), eigenvectors
    (K, n, n)): one stacked eigh per block, of M + 1 and M modes in either
    order.  A failed solve names its first k and the condition number of H(k).
    """
    if pot.parity_class is not ParityClass.EVEN_INDEX:
        raise ValueError("the parity-block solve requires an even-index potential V")
    A = np.stack([assemble_fb_matrix(pot, k, cut) for k in k_grid])
    blocks = []
    for first in (cut.M % 2, 1 - cut.M % 2):  # row i holds mode i - M
        block = A[:, first::2, first::2]
        try:
            blocks.append((np.arange(first, cut.size, 2), *np.linalg.eigh(block)))
        except np.linalg.LinAlgError as exc:
            # the stacked solve does not say which matrix failed
            for k, a, b in zip(k_grid, A, block):
                try:
                    np.linalg.eigh(b)
                except np.linalg.LinAlgError:
                    raise RuntimeError(
                        f"eigensolver failed at k={k}: {exc}; cond(A)={np.linalg.cond(a):.3e}"
                    ) from exc
            raise
    return A, blocks


def band_sweep(pot: PeriodicPotential, k_grid, cut: FourierCutoff) -> BandSweep:
    """Ascending eigenpairs of H(k) at every k of k_grid: the parity blocks'
    (parity_block_eigh) merged, as full (2M + 1)-vectors.

    A failure, of the solve or of the eigen-residual check against the
    full H(k), names its first k and the condition number of its matrix.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if np.any(k_grid < -1e-12) or np.any(k_grid > 2.0 * np.pi + 1e-12):
        raise ValueError("k_grid must lie in [0, 2*pi]")
    A, ((even, evals_e, evecs_e), (odd, evals_o, evecs_o)) = parity_block_eigh(pot, k_grid, cut)
    evals = np.concatenate([evals_e, evals_o], axis=1)
    evecs = np.zeros_like(A)
    evecs[:, even, :len(even)] = evecs_e
    evecs[:, odd, len(even):] = evecs_o
    order = np.argsort(evals, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    evecs = np.take_along_axis(evecs, order[:, None, :], axis=2)
    # backward-stable eigh leaves residuals of order eps*|A|, whatever |lambda|
    resid = np.max(np.abs(A @ evecs - evecs * evals[:, None, :]), axis=1)
    bad = resid > 1e-10 * (1.0 + np.max(np.abs(evals), axis=1, keepdims=True))
    if np.any(bad):
        i, n = np.argwhere(bad)[0]
        raise RuntimeError(
            f"eigen-residual {resid[i, n]:.3e} too large for eigenvalue {evals[i, n]:.6g} "
            f"at k={k_grid[i]}; cond(A)={np.linalg.cond(A[i]):.3e}"
        )
    return BandSweep(k_grid, evals, evecs)


def cell_offsets(x_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split x = n + r with n = floor(x): (distinct r, index of each x's r, n).

    x - floor(x) is exact in floating point, so a grid x = (i + 1/2) h
    with 1/h a power of two has exactly 1/h distinct offsets.
    """
    x = np.asarray(x_grid, dtype=float).ravel()
    n = np.floor(x)
    r, where = np.unique(x - n, return_inverse=True)
    return r, where, n


# entries of the largest exp(i freq r) block formed at once (16 MB complex)
_SUM_BLOCK = 1 << 20


def fourier_eval(coeff_vec: np.ndarray, k: float, x_grid) -> np.ndarray:
    """Evaluate e^{ikx} sum_m c_m e^{2 pi i m x}, one row per coefficient row.

    The sum is 1-periodic up to the Bloch phase, f(n + r) = e^{ikn} f(r),
    so it is summed directly only at the distinct cell offsets r of the
    grid and carried to each x by e^{ikn}.  A (T, 2M+1) stack of
    coefficient vectors gives a (T, *x_grid.shape) result.
    """
    c = np.asarray(coeff_vec)
    M = (c.shape[-1] - 1) // 2
    # modes that vanish in every row: carriers of one index parity are half zeros
    keep = np.any(np.atleast_2d(c) != 0.0, axis=0)
    c = c[..., keep]
    freqs = (2.0 * np.pi * np.arange(-M, M + 1) + k)[keep]
    r, where, n = cell_offsets(x_grid)
    cells = np.empty(c.shape[:-1] + r.shape, dtype=complex)
    step = max(1, _SUM_BLOCK // max(1, len(freqs)))  # offsets per block of the sum
    for lo in range(0, len(r), step):
        cells[..., lo:lo + step] = (np.exp(1j * np.outer(r[lo:lo + step], freqs)) @ c.T).T
    out = cells[..., where] * np.exp(1j * k * n)
    return out.reshape(c.shape[:-1] + np.shape(x_grid))
