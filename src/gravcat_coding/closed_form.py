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

Each entropy is formed from the terms p = v log2 v, three ufunc calls each,
as S(rho) = 0.0 - p1 - p2 - p3 - p4 and S(rho_bar) = 1.0 - (p_nu + p_mu).
IEEE 754 defines x - y as x + (-y), so these have the bits of the sum of
-v log2 v started at 0, signed zeros included: that running sum starts at
+0.0 and never becomes -0.0.  The negated sum -(p1 + p2 + p3 + p4) does
not: at a pure state every term is a zero, and it gives S(rho) = -0.0.
An exact eigenvalue 0 is floored at the least subnormal inside the log, so
its term is a zero.
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


class ClosedFormTerms(NamedTuple):
    """Success probability, post-selected spectrum and averaged halves.

    The Pauli-averaged state is diag(nu, mu, nu, mu) / 2.
    """

    success: np.ndarray
    spectrum: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    nu: np.ndarray
    mu: np.ndarray


def x_state(thermal: ThermalTerms, q=1.0) -> np.ndarray:
    """Stack of X-shaped states diag(alpha_minus, beta, beta, alpha_plus), with kappa
    on the outer anti-diagonal and eta between the middle basis states.  The
    weak measurement that keeps amplitude q scales kappa, beta and eta by q
    and alpha_plus by q^2; the result is not normalized."""
    corner, middle, coherence = thermal.kappa * q, thermal.beta * q, thermal.eta * q
    m = np.zeros(np.shape(corner) + (4, 4))
    m[..., 0, 0], m[..., 3, 3] = thermal.alpha_minus, thermal.alpha_plus * q * q
    m[..., 0, 3] = m[..., 3, 0] = corner
    m[..., 1, 1] = m[..., 2, 2] = middle
    m[..., 1, 2] = m[..., 2, 1] = coherence
    return m


# an exponent such as -2 theta/T can pass the double range; it becomes -inf,
# whose exp is exactly 0, so the values stay right and the warning is noise
@np.errstate(over="ignore")
def _thermal_terms(omega, gamma, temperature) -> ThermalTerms:
    """The thermal half of the closed forms, over broadcast arrays."""
    theta = np.hypot(omega, gamma)
    # chi depends only on energy ratios, so two ranges are rescaled exactly:
    # from theta = 2^1021 on, theta + omega can overflow, and such points are
    # scaled down by 2^-4; below 2^-1021, theta and the ratios omega/theta,
    # gamma/theta keep only a few bits, and such points are scaled up by 2^64
    # (a temperature past 1e289 then overflows to inf, where theta/T is 0 anyway);
    # the range test reduces, so a block in range allocates no mask
    if theta.ndim:  # a numpy scalar skips the reductions, which cost about 2 us a call
        low, high = theta.min(initial=np.inf), theta.max(initial=-np.inf)
    else:
        low = high = theta
    if not (2.0**-1021 <= low and high < 2.0**1021):  # NaN takes this branch, at scale 1
        scale = np.where(theta >= 2.0**1021, 2.0**-4, np.where(theta < 2.0**-1021, 2.0**64, 1.0))
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
    return ClosedFormTerms(success, spectrum, nu, mu)


def _v_log2_v(v):
    """v log2 v in three ufunc calls; a NaN propagates.

    The floor at the least subnormal changes only an exact 0, which gives
    0 * log2(5e-324) = -0.0, as long as v is not negative.  No eigenvalue is
    inside the domain; outside it (q < 0) a negative v gives a finite term,
    not the NaN of log2.
    """
    return v * np.log2(np.maximum(v, 5e-324))


def closed_form_entropies(terms: ClosedFormTerms):
    """(S(rho), S(rho_bar)) in bits; chi is S(rho_bar) - S(rho)."""
    v1, v2, v3, v4 = terms.spectrum  # one term at a time: each is freed once subtracted
    entropy_state = 0.0 - _v_log2_v(v1) - _v_log2_v(v2) - _v_log2_v(v3) - _v_log2_v(v4)
    return entropy_state, 1.0 - (_v_log2_v(terms.nu) + _v_log2_v(terms.mu))


def _chi_from_terms(terms: ClosedFormTerms):
    """chi = S(rho_bar) - S(rho) of evaluated closed-form terms."""
    entropy_state, entropy_average = closed_form_entropies(terms)
    return entropy_average - entropy_state


def closed_form_engine(omega, gamma, temperature, q):
    """(spectrum, S(rho), S(rho_bar), success) over broadcast arrays, with q = 1 - p.

    ``spectrum`` holds the four eigenvalues of the state, one array each, in
    no fixed order.  An unvalidated kernel: NaN propagates and no domain rule
    is checked, so callers run ``thermal.check_domain`` first.  Outside the
    domain the numbers are not physical and not NaN: where q < 0 makes an
    eigenvalue negative, its entropy term is taken at the least subnormal
    inside the log, so both entropies stay finite.
    """
    terms = _post_selected_terms(_thermal_terms(omega, gamma, temperature), q)
    return (terms.spectrum, *closed_form_entropies(terms), terms.success)


def chi_closed_form(omega, gamma, temperature, q=1.0):
    """Dense-coding capacity of `closed_form_engine`: chi = S(rho_bar) - S(rho).

    Unvalidated like `closed_form_engine`, so finite outside the domain:
    ``chi_closed_form(1, 1, 1, -0.5)`` is about 10837 bits, where a valid
    chi lies in [0, 2].
    """
    _, entropy_state, entropy_average, _ = closed_form_engine(omega, gamma, temperature, q)
    return entropy_average - entropy_state
