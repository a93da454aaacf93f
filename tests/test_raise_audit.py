"""No valid input raises or warns: a seeded audit of both engines and the optimizer.

Each box draws a few hundred points of the domain (omega >= 0, gamma >= 0,
T >= 1e-6, p in [0, 1]) from SplitMix64, log-uniformly over the regimes
where a kernel could underflow, overflow or divide by a vanishing weight:
the golden table's box, a wide box, the projective endpoint p = 1 (q = 0),
the smallest q = 1 - p above it (2^-53), and energies near the top of the
double range.  With every warning an error, both engines and
`optimize_strength_many` must return, and every capacity must lie in [0, 2];
the optimizer's capacity still overshoots 2 by one ulp on some points.  Each
engine's kept weight is at least alpha_plus q^2 with alpha_plus >= 1/8, so
no strength p in [0, 1] leaves either engine a vanishing weight to refuse.
"""

import warnings

import numpy as np
import pytest

from gravcat_coding import SplitMix64, check_domain, optimize_strength_many
from gravcat_coding.closed_form import _thermal_terms, closed_form_engine
from gravcat_coding.numeric import numeric_engine

POINTS = 300


def _log_uniform(u, low: float, high: float) -> np.ndarray:
    return 10.0 ** (low + (high - low) * u)


def _golden(u):
    """The box of tests/data/golden_chi.json: gamma = 0 and p = 0 in about 10 % each."""
    omega = _log_uniform(u[0], -3.0, 3.0)
    gamma = np.where(u[1] < 0.1, 0.0, _log_uniform(u[1], -6.0, 3.0))
    q = np.where(u[3] < 0.1, 1.0, 1.0 - (1.0 - _log_uniform(u[3], -9.0, 0.0)))
    return omega, gamma, _log_uniform(u[2], -6.0, 3.0), q


def _wide(u):
    omega, gamma = _log_uniform(u[0], -3.0, 12.0), _log_uniform(u[1], -10.0, 12.0)
    q = 1.0 - (1.0 - _log_uniform(u[3], -16.0, 0.0))  # q as 1 - p rounds it
    return omega, gamma, _log_uniform(u[2], -6.0, 8.0), q


def _projective(u, q: float):
    """p = 1 (q = 0) or the strength just below it: gamma = 0 in about a quarter,
    where the kept |00> weight exp(-2 omega/T) underflows once 2 omega/T passes 691."""
    gamma = np.where(u[1] < 0.25, 0.0, _log_uniform(u[1], -6.0, 6.0))
    return _log_uniform(u[0], -3.0, 6.0), gamma, _log_uniform(u[2], -6.0, 3.0), np.full(POINTS, q)


def _huge(u):
    omega, gamma = _log_uniform(u[0], 100.0, 300.0), _log_uniform(u[1], 100.0, 300.0)
    return omega, gamma, _log_uniform(u[2], -6.0, 300.0), 1.0 - u[3]


BOXES = {
    "golden": _golden,
    "wide": _wide,
    "q=0": lambda u: _projective(u, 0.0),
    "q=2^-53": lambda u: _projective(u, 2.0**-53),
    "huge": _huge,
}


def _draw(box: str):
    u = SplitMix64(2026 + list(BOXES).index(box)).next_floats(4 * POINTS).reshape(4, POINTS)
    omega, gamma, temperature, q = BOXES[box](u)
    check_domain(omega=omega, gamma=gamma, temperature=temperature, strength=1.0 - q)
    return omega, gamma, temperature, q


@pytest.mark.parametrize("box", list(BOXES))
def test_no_valid_input_raises_or_warns(box):
    omega, gamma, temperature, q = _draw(box)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs = [engine(omega, gamma, temperature, q)
                   for engine in (closed_form_engine, numeric_engine)]
        alpha_plus = _thermal_terms(omega, gamma, temperature).alpha_plus
        p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
    # the kept weight is at least alpha_plus q^2, and alpha_plus >= 1/8
    assert (alpha_plus >= 1.0 / 8.0).all()
    for _, entropy_state, entropy_average, success in outputs:
        chi = entropy_average - entropy_state  # chi_closed_form and chi_numeric
        assert ((chi >= 0.0) & (chi <= 2.0)).all()  # NaN fails
        assert (success >= q * q / 8.0).all()
    assert ((p_star >= 0.0) & (p_star <= 1.0)).all()
    assert (chi_star >= 0.0).all()


@pytest.mark.xfail(strict=True, reason=(
    "at the corner-balance strength S(rho_bar) is exactly 2 and S(rho) can round "
    "to -2e-16, so chi_star reaches 2 + 4.4e-16"
))
@pytest.mark.parametrize("box", list(BOXES))
def test_optimal_capacity_is_at_most_two_bits(box):
    omega, gamma, temperature, _ = _draw(box)
    _, chi_star = optimize_strength_many(omega, gamma, temperature)
    assert (chi_star <= 2.0).all()
