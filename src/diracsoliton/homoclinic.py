"""Homoclinic soliton of the effective cubic nonlinear Dirac equation.

The spinor ansatz Psi = ((u + iv)/2, (u - iv)/2) turns the stationary
NLD system into the planar Hamiltonian flow

    c# u' = dH/dv,   c# v' = -dH/du,
    H(u, v) = (b/4)(u^4 + v^4) + (a/2) u^2 v^2
              + (mu#/2)(u^2 + v^2) + (theta#/2)(v^2 - u^2),

with a = 3(beta1 - beta2)/4 and b = (3 beta1 + beta2)/4.  The homoclinic
orbit lives on the zero-energy level and crosses the u-axis
(theta# > 0) or the v-axis (theta# < 0) at y = 0.  There H is a
quartic plus a quadratic form, so Euler's identity turns the flow in
polar coordinates into c# phi' = mu# - theta# cos 2 phi, free of the
radius: the orbit is elementary.  It is the explicit gap soliton of the
coupled-mode equations (Christodoulides & Joseph, Phys. Rev. Lett. 62,
1746, 1989; Aceves & Wabnitz, Phys. Lett. A 141, 37, 1989), evaluated
in closed form at every y >= 0; the proved parity supplies y < 0
exactly.  The envelope has no edge: y_max only bounds its samples on
[-y_max, y_max], from which the decay fit, the kernel check's grid and
the corrector's solvability samples are taken.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the closed form lies on H = 0 to rounding (about 1e-16); drift above this
# means the samples left the zero level
_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class NLDParams:
    c_sharp: float
    theta_sharp: float
    mu_sharp: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if self.c_sharp == 0.0:
            raise ValueError("c_sharp must be nonzero")
        if self.theta_sharp == 0.0:
            raise ValueError("theta_sharp must be nonzero")
        if abs(self.mu_sharp) >= abs(self.theta_sharp):
            raise ValueError(
                f"mu_sharp={self.mu_sharp} must lie strictly inside "
                f"(-|theta_sharp|, |theta_sharp|) = (-{abs(self.theta_sharp)}, "
                f"{abs(self.theta_sharp)})"
            )
        if self.beta1 <= 0.0 or self.beta1 < abs(self.beta2):
            raise ValueError(
                f"need beta1 >= |beta2| > 0 compatible coefficients, got "
                f"beta1={self.beta1}, beta2={self.beta2}"
            )
        try:
            rate = self.decay_rate
        except OverflowError:  # theta#^2 beyond float range
            rate = np.inf
        if not 0.0 < rate < np.inf:
            raise ValueError(
                f"envelope decay rate sqrt(theta#^2 - mu#^2) / |c#| = {rate:.3g} is not a "
                f"positive finite number: theta#={self.theta_sharp:.3g}, c#={self.c_sharp:.3g}"
            )

    @property
    def a(self) -> float:
        return 0.75 * (self.beta1 - self.beta2)

    @property
    def b(self) -> float:
        return 0.25 * (3.0 * self.beta1 + self.beta2)

    @property
    def decay_rate(self) -> float:
        """Asymptotic decay exponent sqrt(theta#^2 - mu#^2) / |c#|."""
        return np.sqrt(self.theta_sharp**2 - self.mu_sharp**2) / abs(self.c_sharp)


@dataclass
class SpinorProfile:
    """Sampled homoclinic solution with its diagnostics.

    evaluate is the closed-form orbit (_orbit): _half_orbit elementwise
    at |y|, past y_max too, with the parity relations on y < 0, so its
    values carry rounding error only, not interpolation error;
    derivatives are taken from the vector field (_rhs) at those values.
    """

    params: NLDParams
    y_grid: np.ndarray
    u: np.ndarray
    v: np.ndarray
    hamiltonian_trace: np.ndarray
    decay_rate_fit: float
    h_drift_max: float

    @property
    def psi_minus(self) -> np.ndarray:
        return 0.5 * (self.u + 1j * self.v)

    @property
    def psi_plus(self) -> np.ndarray:
        return 0.5 * (self.u - 1j * self.v)

    @property
    def y_max(self) -> float:
        return float(self.y_grid[-1])

    def evaluate(self, y) -> tuple[np.ndarray, np.ndarray]:
        return _orbit(self.params, y)


def hamiltonian(params: NLDParams, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    a, b = params.a, params.b
    u2, v2 = u * u, v * v
    return (
        0.25 * b * (u2 * u2 + v2 * v2)
        + 0.5 * a * u2 * v2
        + 0.5 * params.mu_sharp * (u2 + v2)
        + 0.5 * params.theta_sharp * (v2 - u2)
    )


def _rhs(params: NLDParams, u, v):
    a, b, mu, th, c = params.a, params.b, params.mu_sharp, params.theta_sharp, params.c_sharp
    du = (th * v + mu * v + a * u**2 * v + b * v * v * v) / c
    dv = (th * u - mu * u - b * u * u * u - a * v**2 * u) / c
    return du, dv


def _half_orbit(params: NLDParams, y) -> tuple[np.ndarray, np.ndarray]:
    """The homoclinic (u, v) at y >= 0 in closed form.

    With r the decay rate, kappa = sqrt((|theta#| - mu#)/(|theta#| + mu#))
    and t = -sgn(c#) kappa tanh(r y), the orbit is (A, tA) for theta# > 0
    and (-tA, A) for theta# < 0, with
    A = sqrt(2(|theta#| - mu#) / (b(1 + t^4) + 2a t^2)) sech(r y).
    The factor (|theta#| - mu#) sech^2 is kept whole: written as
    |theta#|(1 - t^2) - mu#(1 + t^2) it cancels in the tail.
    """
    y = np.asarray(y, dtype=float)
    th, mu = abs(params.theta_sharp), params.mu_sharp
    r = params.decay_rate
    e = np.exp(-r * y)
    sech = 2.0 * e / (1.0 + e * e)
    t = -np.sign(params.c_sharp) * np.sqrt((th - mu) / (th + mu)) * np.tanh(r * y)
    t2 = t * t
    amp = sech * np.sqrt(2.0 * (th - mu) / (params.b * (1.0 + t2 * t2) + 2.0 * params.a * t2))
    if params.theta_sharp > 0:
        return amp, t * amp
    return -t * amp, amp


def _orbit(params: NLDParams, y) -> tuple[np.ndarray, np.ndarray]:
    """The homoclinic (u, v) at any y: _half_orbit at |y|, and on y < 0 the
    proved parity, v odd for theta# > 0 and u odd for theta# < 0."""
    y = np.asarray(y, dtype=float)
    u, v = _half_orbit(params, np.abs(y))
    neg = y < 0
    if params.theta_sharp > 0:
        v = np.where(neg, -v, v)
    else:
        u = np.where(neg, -u, u)
    return u, v


def integrate_homoclinic(params: NLDParams, y_max: float | None = None) -> SpinorProfile:
    """Sample the closed-form homoclinic orbit at 6001 points of [-y_max, y_max].

    y_max defaults to 18 decay lengths and must lie in [15, 40] of them.
    From 15 on the envelope has decayed at the edge: a = 3(beta1 -
    beta2)/4 >= 0, so there |(u, v)| is at most 1.0987 sech(15) =
    6.7e-7 of its value at y = 0.  Above 40, the kernel check's
    601-point grid no longer resolves the soliton: against 4801 points
    its margin on Y is off by 6.5e-5 relative at 40 decay lengths and by
    1.5e-3 at 80 (free lattice, W = cos 2 pi x).  The samples must lie
    on the zero level of H.
    """
    ell = 1.0 / params.decay_rate
    if y_max is None:
        y_max = 18.0 * ell
    if not 15.0 * ell <= y_max <= 40.0 * ell:
        raise ValueError(
            f"y_max={y_max:.3g} is {y_max / ell:.3g} decay lengths of {ell:.3g}: "
            "it must lie in [15, 40] decay lengths, long enough for the envelope "
            "to decay and short enough for the kernel check's grid to resolve it"
        )
    th, mu, b = abs(params.theta_sharp), params.mu_sharp, params.b
    y_half = np.linspace(0.0, y_max, 3001)
    y_grid = np.concatenate([-y_half[:0:-1], y_half])
    u, v = _orbit(params, y_grid)
    H = hamiltonian(params, u, v)
    h_scale = (th - mu) ** 2 / (4.0 * b)  # |H| at the nontrivial equilibrium
    drift = float(np.max(np.abs(H)))
    if drift > _DRIFT_TOL * (1.0 + h_scale):
        raise RuntimeError(
            f"Hamiltonian drift {drift:.3e} exceeds {_DRIFT_TOL:.0e}: "
            "the samples left the zero level"
        )
    return SpinorProfile(
        params=params,
        y_grid=y_grid,
        u=u,
        v=v,
        hamiltonian_trace=H,
        decay_rate_fit=_decay_fit(y_grid, np.hypot(u, v), y_max),
        h_drift_max=drift,
    )


def _decay_fit(y: np.ndarray, amp: np.ndarray, y_max: float) -> float:
    """Slope of log amplitude on the tail window [0.5, 0.9] * y_max."""
    mask = (y >= 0.5 * y_max) & (y <= 0.9 * y_max)
    coef = np.polyfit(y[mask], np.log(amp[mask]), 1)
    return float(-coef[0])


@dataclass
class KernelCheckResult:
    """|eigenvalues| of the linearisation at the soliton.

    The discretised operator is symmetric, so these are also its
    singular values.  sigma_min_restricted is the smallest on Y,
    sigma_min_unrestricted the smallest over both parity sectors (the
    translation mode Psi', which lies outside Y) and operator_norm the
    largest.  nu_restricted is the eigenvalue on Y nearest 0, signed:
    sigma_min_restricted = |nu_restricted|, and delta nu_restricted
    predicts the soliton Jacobian's eigenvalue nearest 0, sign included.
    """

    sigma_min_unrestricted: float
    sigma_min_restricted: float
    operator_norm: float
    nu_restricted: float


# fourth-order staggered derivative (1, -27, 27, -1)/24h and midpoint
# interpolation (-1, 9, 9, -1)/16: weights at offsets h/2 and 3h/2
_STAGGER_D = (27.0 / 24.0, -1.0 / 24.0)
_STAGGER_I = (9.0 / 16.0, -1.0 / 16.0)


def _sector_bands(profile: SpinorProfile, n_points: int) -> dict[float, np.ndarray]:
    """L = c J d/dy - Hess H per parity sector, in upper LAPACK band storage.

    Unknowns interleave p(jh), j = 0..N, at even and q((j + 1/2) h),
    j < N, at odd indices, with h = y_max / N; both vanish beyond
    y_max.  The cross term H_uv = 2auv sits on the nodes and reaches q
    through the midpoint interpolation I: -H_uv I q in the p rows,
    -I^T (H_uv p) in the q rows.  The sector p(-y) = sign p(y),
    q(-y) = -sign q(y) is folded onto y >= 0: the mirror ghost p(-h)
    enters the row of q(h/2); for sign +1 p(0), its own mirror, enters
    with weight sqrt(2) so the fold stays symmetric, for sign -1 it is
    zero and dropped.  Keyed by sign.
    """
    params = profile.params
    n = 2 * (n_points // 2)
    h = 2.0 * profile.y_max / n
    u, v = profile.evaluate(0.5 * h * np.arange(n + 1))
    a, b, c = params.a, params.b, params.c_sharp
    mu, th = params.mu_sharp, params.theta_sharp
    ab = np.zeros((4, n + 1))
    ab[3, 0::2] = -(3.0 * b * u[0::2] ** 2 + a * v[0::2] ** 2 + mu - th)
    ab[3, 1::2] = -(3.0 * b * v[1::2] ** 2 + a * u[1::2] ** 2 + mu + th)
    w = 2.0 * a * u * v
    for k, d, g in zip((1, 3), _STAGGER_D, _STAGGER_I):
        i = np.arange(n + 1 - k)
        p_row = i % 2 == 0
        node = np.where(p_row, i, i + k)
        ab[3 - k, k:] = np.where(p_row, -1.0, 1.0) * c * d / h - w[node] * g
    # w is odd, so H_uv(-h) = -w[2]
    ghost = -c * _STAGGER_D[1] / h + w[2] * _STAGGER_I[1]
    bands = {}
    for sign in (1.0, -1.0):
        band = ab.copy()
        band[2, 2] += sign * ghost  # p(-h) = sign p(h) in the row of q(h/2)
        if sign > 0:
            band[[2, 0], [1, 3]] *= np.sqrt(2.0)
        else:
            band = band[:, 1:]
        bands[sign] = band
    return bands


def kernel_check_on_Y(profile: SpinorProfile, n_points: int = 601) -> KernelCheckResult:
    """Spectrum of the linearisation L = c J d/dy - Hess H per parity sector.

    L acts on (p, q), zeta = ((p + iq)/2, (p - iq)/2), with
    J = [[0, -1], [1, 0]] and H the envelope Hamiltonian; up to a unitary
    change of variables it is the linearisation of the stationary NLD
    system at the soliton.  It is discretised on a staggered grid: p on
    the nodes jh, q on the midpoints (j + 1/2) h, fourth-order staggered
    derivative, h = y_max / (n_points // 2).  Its symbol vanishes only at
    wavenumber 0, so unlike a centred stencil it has no doubler mode near
    the kernel (Stacey, Phys. Rev. D 26, 468, 1982).

    L commutes with (p, q)(y) -> (p(-y), -q(-y)), so it splits into the
    sectors p even/q odd and p odd/q even.  Y is the first for theta# > 0
    and the second for theta# < 0.  Each sector is folded onto y >= 0
    through its mirror ghosts (_sector_bands), as in
    newton.discretize_operator.  The eigenvalues of each bandwidth-3
    sector come from LAPACK dsbevd on its upper band storage, as
    scipy.linalg.eigvals_banded calls it.  Unrestricted, the translation
    mode Psi' gives a near-kernel; on Y the smallest |eigenvalue| stays
    bounded away from zero.
    """
    from ._lapack import dsbevd  # here: bands and dirac start without scipy

    spectra = {}
    for sign, band in _sector_bands(profile, n_points).items():
        w, _, info = dsbevd(np.asarray_chkfinite(band), compute_v=0, lower=0, overwrite_ab=0)
        if info != 0:
            raise np.linalg.LinAlgError(f"dsbevd did not converge (LAPACK info={info})")
        spectra[sign] = w
    both = np.abs(np.concatenate(list(spectra.values())))
    on_Y = spectra[np.sign(profile.params.theta_sharp)]
    nu = float(on_Y[np.argmin(np.abs(on_Y))])
    return KernelCheckResult(
        sigma_min_unrestricted=float(np.min(both)),
        sigma_min_restricted=abs(nu),
        operator_norm=float(np.max(both)),
        nu_restricted=nu,
    )
