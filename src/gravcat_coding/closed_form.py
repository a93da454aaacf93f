"""The closed-form engine: one array formula for the gravcat thermal state and its capacity.

Inputs broadcast as numpy arrays (or floats); ``q = 1 - p`` is the amplitude
kept by the weak measurement, so ``q = 1`` is the unmeasured state and
``q = 0`` the projective endpoint, where chi is exactly 1, also where the
kept weight underflows to 0.  No small quantity is formed as a difference:
the exponent (theta - gamma)/T is taken as omega^2 / ((theta + gamma) T),
1 - omega/theta as gamma^2 / (theta (theta + omega)), and the small corner
eigenvalue from the block determinant (Vieta).
Every eigenvalue is a product or sum of positive terms, so each keeps full
relative precision even after division by a tiny success probability.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import LocatedError

MIN_SUCCESS_PROBABILITY = 1e-300


class ZeroSuccessProbabilityError(LocatedError):
    """Post-selection branch has vanishing probability; ``index`` locates the first such element."""


def check_success(success) -> None:
    """Raise ``ZeroSuccessProbabilityError`` where the kept branch has vanishing probability."""
    success = np.asarray(success)
    message = "post-selection success probability {:.3e} vanishes"
    ZeroSuccessProbabilityError.raise_first(success < MIN_SUCCESS_PROBABILITY, success, message)


class ClosedFormTerms(NamedTuple):
    """Thermal entries, success probability, post-selected spectrum and averaged halves.

    The entries are those of `x_state`; the Pauli-averaged state is
    diag(nu, mu, nu, mu) / 2.
    """

    alpha_minus: np.ndarray
    alpha_plus: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    eta: np.ndarray
    success: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    nu: np.ndarray
    mu: np.ndarray


def x_state(entries, q=1.0) -> np.ndarray:
    """Stack of X-shaped states diag(alpha_minus, beta, beta, alpha_plus), with kappa
    on the outer anti-diagonal and eta between the middle basis states, from the
    entries of a ``ClosedFormTerms`` or a ``ThermalClosedForm``.  The weak
    measurement that keeps amplitude q scales kappa, beta and eta by q and
    alpha_plus by q^2; the result is not normalized."""
    corner, middle, coherence = entries.kappa * q, entries.beta * q, entries.eta * q
    m = np.zeros(np.shape(corner) + (4, 4))
    m[..., 0, 0], m[..., 3, 3] = entries.alpha_minus, entries.alpha_plus * q * q
    m[..., 0, 3] = m[..., 3, 0] = corner
    m[..., 1, 1] = m[..., 2, 2] = middle
    m[..., 1, 2] = m[..., 2, 1] = coherence
    return m


class ThermalTerms(NamedTuple):
    """Entries of the thermal state (see `x_state`) and the shifted Boltzmann factors.

    ``ex2``, ``exy`` and ``ey2`` are exp(-2 theta/T), exp(-(theta - gamma)/T)
    and exp(-2 gamma/T); ``z`` is Z exp(-theta/T).  None depends on the
    measurement, so one evaluation serves every strength.
    """

    alpha_minus: np.ndarray
    alpha_plus: np.ndarray
    beta: np.ndarray
    kappa: np.ndarray
    eta: np.ndarray
    ex2: np.ndarray
    exy: np.ndarray
    ey2: np.ndarray
    z: np.ndarray


# an exponent such as -2 theta/T can pass the double range; it becomes -inf,
# whose exp is exactly 0, so the values stay right and the warning is noise
@np.errstate(over="ignore")
def _thermal_terms(omega, gamma, temperature) -> ThermalTerms:
    """The thermal half of the closed forms, over broadcast arrays."""
    theta = np.hypot(omega, gamma)
    # from theta = 2^1021 on, theta + omega can overflow; chi depends only on
    # energy ratios, so such points are scaled down by an exact 2^-4
    huge = theta >= 2.0**1021
    if huge.any() if huge.ndim else huge:  # .any() of a numpy scalar costs 2 us a call
        scale = np.where(huge, 2.0**-4, 1.0)
        omega, gamma, temperature = omega * scale, gamma * scale, temperature * scale
        theta = np.hypot(omega, gamma)
    # omega = gamma = 0 is H = 0, whose state is exactly I/4: the stand-in
    # theta = 1 makes omega/theta = gamma/theta = 0 and the flag makes
    # 1 - omega/theta exactly 1 (it adds 0 wherever theta > 0)
    degenerate = theta == 0.0
    safe = theta + degenerate
    rw = omega / safe
    rg = gamma / safe
    one_minus_rw = rg * (gamma / (safe + omega)) + degenerate
    x = theta / temperature
    ex2 = np.exp(-2.0 * x)                                           # exp(-2 theta/T)
    exy = np.exp(-(omega / (safe + gamma)) * (omega / temperature))  # exp(-(theta - gamma)/T)
    ey2 = np.exp(-2.0 * gamma / temperature)                         # exp(-2 gamma/T)
    z = (1.0 + ex2) + exy * (1.0 + ey2)                              # Z exp(-theta/T)
    alpha_minus = (one_minus_rw + ex2 * (1.0 + rw)) / (2.0 * z)
    alpha_plus = ((1.0 + rw) + ex2 * one_minus_rw) / (2.0 * z)
    kappa = rg * -np.expm1(-2.0 * x) / (2.0 * z)
    beta = exy * (1.0 + ey2) / (2.0 * z)
    eta = exy * -np.expm1(-2.0 * gamma / temperature) / (2.0 * z)
    return ThermalTerms(alpha_minus, alpha_plus, beta, kappa, eta, ex2, exy, ey2, z)


def _post_selected_terms(thermal: ThermalTerms, q) -> ClosedFormTerms:
    """The measurement half of the closed forms: thermal terms and q broadcast together."""
    alpha_minus, alpha_plus, beta, kappa, eta, ex2, exy, ey2, z = thermal
    # the measurement keeps alpha_minus and scales kappa, beta, eta by q and
    # alpha_plus by q^2; the corner block is [[a, c], [c, b]]
    a, b, c = alpha_minus, alpha_plus * q * q, kappa * q
    success = kept = a + 2.0 * beta * q + b  # kept divides the spectrum
    vanishing = np.asarray(success < MIN_SUCCESS_PROBABILITY)
    if vanishing.any():
        # at q = 0 the kept state is |00><00| at every finite T, however small
        # its weight alpha_minus: weight 1 stands in for it there, and any
        # other vanishing weight still raises
        projective = vanishing & (np.asarray(q) == 0.0)
        check_success(np.where(projective, 1.0, success))
        a = np.where(projective, 1.0, a)
        kept = np.where(projective, 1.0, success)
    corner_hi = 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
    # Vieta: the block determinant q^2 (alpha_minus alpha_plus - kappa^2) is q^2 ex2 / z^2
    corner_lo = (q * q * ex2 / (z * z)) / corner_hi
    middle = (exy * q / z, exy * ey2 * q / z)  # (beta + eta) q and (beta - eta) q
    spectrum = tuple(v / kept for v in (corner_hi, corner_lo, *middle))
    nu = (a + beta * q) / kept
    mu = (b + beta * q) / kept
    return ClosedFormTerms(alpha_minus, alpha_plus, beta, kappa, eta, success, spectrum, nu, mu)


def _closed_form_terms(omega, gamma, temperature, q) -> ClosedFormTerms:
    """The one definition of the gravcat closed forms, over broadcast arrays."""
    return _post_selected_terms(_thermal_terms(omega, gamma, temperature), q)


def _entropy_bits(*values):
    """Sum of -v log2 v; an exact 0 contributes 0 and a NaN propagates."""
    return sum(-v * np.log2(v + (v == 0.0)) for v in values)


def closed_form_entropies(terms: ClosedFormTerms):
    """(S(rho), S(rho_bar)) in bits; chi is S(rho_bar) - S(rho)."""
    return _entropy_bits(*terms.spectrum), 1.0 + _entropy_bits(terms.nu, terms.mu)


def _chi_from_terms(terms: ClosedFormTerms):
    """chi = S(rho_bar) - S(rho) of evaluated closed-form terms."""
    entropy_state, entropy_average = closed_form_entropies(terms)
    return entropy_average - entropy_state


def chi_closed_form(omega, gamma, temperature, q=1.0):
    """Dense-coding capacity over broadcast arrays, with q = 1 - p.

    Inputs are not validated here (``GravcatParams`` holds the domain rules).
    """
    return _chi_from_terms(_closed_form_terms(omega, gamma, temperature, q))
