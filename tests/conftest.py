import numpy as np
import pytest
from scipy.integrate import solve_ivp

from diracsoliton import (
    FourierCutoff,
    NLDParams,
    ParityClass,
    PeriodicPotential,
    certify_dirac_point,
    integrate_homoclinic,
)
from diracsoliton.bloch import solve_bands_at_k
from diracsoliton.homoclinic import _rhs, _sector_bands

DEFAULT_V = {2: 20.0}
DEFAULT_W = {1: 1.0}


@pytest.fixture(scope="session")
def pot_v():
    return PeriodicPotential(DEFAULT_V, ParityClass.EVEN_INDEX)


@pytest.fixture(scope="session")
def pot_w():
    return PeriodicPotential(DEFAULT_W, ParityClass.ODD_INDEX)


@pytest.fixture(scope="session")
def pot_free():
    return PeriodicPotential({}, ParityClass.EVEN_INDEX)


@pytest.fixture(scope="session")
def cut64():
    return FourierCutoff(64)


@pytest.fixture(scope="session")
def free_dirac(pot_free, pot_w, cut64):
    return certify_dirac_point(pot_free, pot_w, cut64)


@pytest.fixture(scope="session")
def default_dirac(pot_v, pot_w, cut64):
    return certify_dirac_point(pot_v, pot_w, cut64)


@pytest.fixture(scope="session")
def default_params(default_dirac):
    return NLDParams(
        c_sharp=default_dirac.c_sharp,
        theta_sharp=default_dirac.theta_sharp,
        mu_sharp=0.0,
        beta1=default_dirac.beta1,
        beta2=default_dirac.beta2,
    )


@pytest.fixture(scope="session")
def default_profile(default_params):
    return integrate_homoclinic(default_params)


@pytest.fixture(scope="session")
def canonical_params():
    """Unit-coefficient parameters: c# = theta# = 1, a = b = 3/4."""
    return NLDParams(c_sharp=1.0, theta_sharp=1.0, mu_sharp=0.0, beta1=1.0, beta2=0.0)


@pytest.fixture(scope="session")
def canonical_profile(canonical_params):
    return integrate_homoclinic(canonical_params, y_max=20.0)


@pytest.fixture(scope="session")
def free_params(free_dirac):
    return NLDParams(
        c_sharp=free_dirac.c_sharp,
        theta_sharp=free_dirac.theta_sharp,
        mu_sharp=0.0,
        beta1=free_dirac.beta1,
        beta2=free_dirac.beta2,
    )


@pytest.fixture(scope="session")
def free_profile(free_params):
    return integrate_homoclinic(free_params)


def band_slope_oracle(pot_V, data, h=1e-4):
    """Centered-difference slopes of the two smooth branches across k = pi.

    The smooth branches swap raw band indices at pi: one follows band
    n*+1 for k < pi and band n* for k > pi, the other the reverse.
    """
    lo = solve_bands_at_k(pot_V, np.pi - h, data.cutoff).eigenvalues
    hi = solve_bands_at_k(pot_V, np.pi + h, data.cutoff).eigenvalues
    i_lo, i_hi = data.band_pair[0] - 1, data.band_pair[1] - 1
    slope_minus = (hi[i_lo] - lo[i_hi]) / (2.0 * h)
    slope_plus = (hi[i_hi] - lo[i_lo]) / (2.0 * h)
    return float(slope_minus), float(slope_plus)


def _band_apply(band, x):
    """Product of a symmetric matrix in upper LAPACK band storage with x."""
    u = len(band) - 1
    y = band[u] * x
    for k in range(1, u + 1):
        y[:-k] += band[u - k, k:] * x[k:]
        y[k:] += band[u - k, k:] * x[:-k]
    return y


def _sector_residual(profile, n_points, translation=True):
    """|L x| / |x| on the kernel check's folded sector band.

    x is the translation mode (u', v') from the vector field, or with
    translation=False the soliton (u, v), at the band's points: p on the
    nodes jh, q on the midpoints (j + 1/2) h, in its own parity sector.
    Psi' lies in the sector p odd for theta# > 0, the soliton in the
    other one; the even sector weights p(0) by sqrt(2), so its sample is
    scaled by 1/sqrt(2).
    """
    params = profile.params
    n = 2 * (n_points // 2)
    u, v = profile.evaluate(profile.y_max / n * np.arange(n + 1))
    sign = np.sign(params.theta_sharp)
    if translation:
        u, v = _rhs(params, u, v)
        sign = -sign
    x = np.where(np.arange(n + 1) % 2 == 0, u, v)
    if sign > 0:
        x[0] /= np.sqrt(2.0)
    else:
        x = x[1:]
    band = _sector_bands(params, profile, n_points)[sign]
    return float(np.linalg.norm(_band_apply(band, x)) / np.linalg.norm(x))


@pytest.fixture(scope="session")
def sector_residual():
    return _sector_residual


def initial_condition(params):
    """Zero-energy axis crossing the homoclinic passes through at y = 0."""
    th, mu, b = params.theta_sharp, params.mu_sharp, params.b
    if th > 0:
        return (float(np.sqrt(2.0 * (th - mu) / b)), 0.0)
    return (0.0, float(np.sqrt(2.0 * (-th - mu) / b)))


def equilibria(params):
    """The origin and the two nontrivial equilibria on the launch axis."""
    th, mu, b = params.theta_sharp, params.mu_sharp, params.b
    r = np.sqrt((abs(th) - mu) / b)
    if th > 0:
        pts = [(0.0, 0.0), (r, 0.0), (-r, 0.0)]
    else:
        pts = [(0.0, 0.0), (0.0, r), (0.0, -r)]
    for u, v in pts:
        du, dv = _rhs(params, u, v)
        assert max(abs(du), abs(dv)) <= 1e-12, (u, v)
    return pts


def shoot_homoclinic(params, y_max):
    """Half-orbit (u, v) on [0, y_max] by DOP853 backward shooting.

    The independent oracle for the closed form.  Forward integration
    from the axis crossing is unstable: noise grows like exp(+r y) along
    the unstable direction.  So the orbit is integrated backward from a
    point eps far down the stable manifold, along the eigenvector
    (1, -r c / (theta + mu)) of the linearisation at the origin (its
    nonlinear corrections are O(eps^2) relative), until it reaches the
    symmetry axis, and re-centred there.  Returns the dense output as a
    function of y.
    """
    th, mu, c = params.theta_sharp, params.mu_sharp, params.c_sharp
    r = params.decay_rate
    scale = np.hypot(*initial_condition(params))
    xi = np.array([1.0, -r * c / (th + mu)])
    if th < 0 and xi[1] < 0:
        xi = -xi  # the branch on the v > 0 side of the loop
    start = scale * np.exp(-r * y_max - 4.0) * xi / np.linalg.norm(xi)

    def apex(_, w):
        return w[1] if th > 0 else w[0]

    apex.terminal = True
    sol = solve_ivp(
        lambda _, w: _rhs(params, w[0], w[1]),
        (0.0, -(y_max + 16.0 / r)),
        start,
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        dense_output=True,
        events=apex,
    )
    assert sol.success, sol.message
    (y_apex,) = sol.t_events[0]
    assert -y_apex >= y_max
    assert abs(np.hypot(*sol.sol(y_apex)) - scale) <= 1e-6 * scale
    return lambda y: sol.sol(y_apex + np.asarray(y, dtype=float))
