"""Independent vectorized capacity of the gravcat thermal state, for the gate.

The benchmark checks every figure cell against this reference, so it shares
no code with the package: the spectrum comes straight from the Boltzmann
weights of the energies {-theta, -gamma, gamma, theta}, and every small
eigenvalue is formed from a product (Vieta) rather than from a difference.
"""

from __future__ import annotations

import numpy as np


def _entropy_terms(v: np.ndarray) -> np.ndarray:
    safe = np.where(v > 0.0, v, 1.0)
    return np.where(v > 0.0, -v * np.log2(safe), 0.0)


def reference_chi(omega, gamma, temperature, strength=None) -> np.ndarray:
    """chi over broadcast arrays; ``strength=None`` means no weak measurement."""
    omega, gamma, temperature = np.broadcast_arrays(
        np.asarray(omega, dtype=float), np.asarray(gamma, dtype=float),
        np.asarray(temperature, dtype=float),
    )
    q = 1.0 if strength is None else 1.0 - np.asarray(strength, dtype=float)
    theta = np.hypot(omega, gamma)
    x = theta / temperature
    y = gamma / temperature
    ex2 = np.exp(-2.0 * x)
    exy = np.exp(-(x - y))
    ey2 = np.exp(-2.0 * y)
    z = (1.0 + ex2) + exy * (1.0 + ey2)  # partition function times exp(-theta/T)
    # 1 - omega/theta written without cancellation
    one_minus_rw = gamma * gamma / (theta * (theta + omega))
    one_plus_rw = 1.0 + omega / theta
    alpha_minus = (one_minus_rw + ex2 * one_plus_rw) / (2.0 * z)
    alpha_plus = (one_plus_rw + ex2 * one_minus_rw) / (2.0 * z)
    kappa = (gamma / theta) * -np.expm1(-2.0 * x) / (2.0 * z)
    beta = exy * (1.0 + ey2) / (2.0 * z)
    # post-selected (unnormalized) corner block [[a, c], [c, b]] and middle pair
    a = alpha_minus
    b = alpha_plus * q * q
    c = kappa * q
    corner_hi = 0.5 * (a + b) + np.hypot(0.5 * (a - b), c)
    corner_lo = (q * q * ex2 / (z * z)) / corner_hi
    middle_hi = exy * q / z
    middle_lo = exy * ey2 * q / z
    success = a + 2.0 * beta * q + b
    spectrum = np.stack([corner_hi, corner_lo, middle_hi, middle_lo]) / success
    nu = (a + beta * q) / success
    mu = (b + beta * q) / success
    entropy_state = _entropy_terms(spectrum).sum(axis=0)
    entropy_average = 1.0 + _entropy_terms(nu) + _entropy_terms(mu)
    return entropy_average - entropy_state
