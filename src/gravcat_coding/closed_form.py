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

The four eigenvalues and the averaged halves nu, mu are written as the rows
of one stack and divided by the kept weight together.  Each measured row is
its q-free factor times q: the corner block's off-diagonal kappa q, its
alpha_plus q^2 and its determinant ex2 / z^2 q^2, and the middle pair
(exy / z) q and (exy ey2 / z) q.  q enters last, so at q = 1 every such
product is a multiplication by 1.0 and the unmeasured state has the bits of
the q-free formulas.  The terms p = v log2 v of all six rows come from one
pass of three ufunc calls over that stack, and the entropies are
S(rho) = 0.0 - p1 - p2 - p3 - p4 and S(rho_bar) = 1.0 - (p_nu + p_mu).
S(rho) is one ``np.subtract.reduce`` from the initial 0.0, which folds left
to right in that order, not as a pairwise sum.
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


def kept_weight(success, projector):
    """(weight, projective): the weight dividing each kept state, and where |00><00| is kept.

    Where ``projector`` holds (q = 0 on a state of full support, such as a
    Gibbs state at finite T), weight 1 stands in below the floor; any other
    vanishing weight raises ``ZeroSuccessProbabilityError`` at the first.
    """
    projective = (success < MIN_SUCCESS_PROBABILITY) & projector
    weight = np.where(projective, 1.0, success)
    message = "post-selection success probability {:.3e} vanishes"
    ZeroSuccessProbabilityError.raise_first(weight < MIN_SUCCESS_PROBABILITY, weight, message)
    return weight, projective


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
    """Success probability and the post-selected values, as one stack.

    ``stack`` has a leading axis of six: rows 0-3 are the spectrum of the
    state, in no fixed order, and rows 4-5 are nu and mu, the halves of the
    Pauli-averaged state diag(nu, mu, nu, mu) / 2.
    """

    success: np.ndarray
    stack: np.ndarray


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
    # each repeated subexpression is formed once, in the same operation order
    minus_2x = -2.0 * (theta / temperature)                          # -2 theta/T
    minus_2y = -2.0 * gamma / temperature                            # -2 gamma/T
    ex2 = np.exp(minus_2x)                                           # exp(-2 theta/T)
    exy = np.exp(-(omega / (safe + gamma)) * (omega / temperature))  # exp(-(theta - gamma)/T)
    ey2 = np.exp(minus_2y)                                           # exp(-2 gamma/T)
    one_plus_rw, one_plus_ey2 = 1.0 + rw, 1.0 + ey2
    z = (1.0 + ex2) + exy * one_plus_ey2                             # Z exp(-theta/T)
    two_z = 2.0 * z
    alpha_minus = (one_minus_rw + ex2 * one_plus_rw) / two_z
    alpha_plus = (one_plus_rw + ex2 * one_minus_rw) / two_z
    kappa = rg * -np.expm1(minus_2x) / two_z
    beta = exy * one_plus_ey2 / two_z
    eta = exy * -np.expm1(minus_2y) / two_z
    return ThermalTerms(alpha_minus, alpha_plus, beta, kappa, eta, ex2, exy, ey2, z)


def _post_selected_terms(thermal: ThermalTerms, q) -> ClosedFormTerms:
    """The measurement half of the closed forms: thermal terms and q broadcast together."""
    alpha_minus, alpha_plus, beta, kappa, eta, ex2, exy, ey2, z = thermal
    # the measurement keeps alpha_minus and scales kappa, beta, eta by q and
    # alpha_plus by q^2; the corner block is [[a, c], [c, b]].  Each row is
    # its q-free factor times q or q^2, with q entering last, so at q = 1
    # every such product is a multiplication by 1.0 and changes no bit
    q_squared = q * q
    a, b, c = alpha_minus, alpha_plus * q_squared, kappa * q
    success = kept = a + 2.0 * beta * q + b  # kept divides the stack
    # one reduction on every call; NaN takes this branch and leaves it unchanged
    if not success.min(initial=np.inf) >= MIN_SUCCESS_PROBABILITY:
        # q = 0 projects a full-support thermal state onto |00>: a = 1 over weight 1
        kept, projective = kept_weight(success, np.asarray(q) == 0.0)
        a = np.where(projective, 1.0, a)
    # rows are written as stack[i, ...], a view also where the stack is 1-D
    stack = np.empty((6,) + np.shape(success))
    np.hypot(0.5 * (a - b), c, out=stack[0, ...])
    stack[0, ...] += 0.5 * (a + b)  # corner_hi; x + y has the bits of y + x
    # Vieta: the block determinant q^2 (alpha_minus alpha_plus - kappa^2) is
    # the q-free ex2 / z^2 times q^2
    np.divide(ex2 / (z * z) * q_squared, stack[0, ...], out=stack[1, ...])  # corner_lo
    np.multiply(exy / z, q, out=stack[2, ...])  # (beta + eta) q, beta + eta = exy / z
    np.multiply(exy * ey2 / z, q, out=stack[3, ...])  # (beta - eta) q, beta - eta = exy ey2 / z
    beta_q = beta * q
    np.add(a, beta_q, out=stack[4, ...])  # nu
    np.add(b, beta_q, out=stack[5, ...])  # mu
    stack /= kept
    return ClosedFormTerms(success, stack)


def closed_form_entropies(terms: ClosedFormTerms):
    """(S(rho), S(rho_bar)) in bits; chi is S(rho_bar) - S(rho).

    The terms v log2 v come from one pass over the stack; a NaN propagates.
    The floor at the least subnormal changes only an exact 0, which gives
    0 * log2(5e-324) = -0.0, as long as v is not negative.  No eigenvalue is
    inside the domain; outside it (q < 0) a negative v gives a finite term,
    not the NaN of log2.
    """
    stack = terms.stack
    t = np.maximum(stack, 5e-324)
    np.log2(t, out=t)
    t *= stack
    # a subtract reduction folds left to right from its initial value: it is
    # 0.0 - p1 - p2 - p3 - p4 in that order, not a pairwise sum, in one call
    entropy_state = np.subtract.reduce(t[:4], axis=0, initial=0.0)
    entropy_average = 1.0 - (t[4] + t[5])
    return entropy_state, entropy_average


def _chi_from_terms(terms: ClosedFormTerms):
    """chi = S(rho_bar) - S(rho) of evaluated closed-form terms."""
    entropy_state, entropy_average = closed_form_entropies(terms)
    return entropy_average - entropy_state


def closed_form_engine(omega, gamma, temperature, q):
    """(spectrum, S(rho), S(rho_bar), success) over broadcast arrays, with q = 1 - p.

    ``spectrum`` is one array whose leading axis holds the four eigenvalues
    of the state, in no fixed order, as ``numeric_engine`` returns it.  An
    unvalidated kernel: NaN propagates and no domain rule is checked, so
    callers run ``thermal.check_domain`` first.  Outside the domain the
    numbers are not physical and not NaN: where q < 0 makes an eigenvalue
    negative, its entropy term is taken at the least subnormal inside the
    log, so both entropies stay finite.
    """
    terms = _post_selected_terms(_thermal_terms(omega, gamma, temperature), q)
    return (terms.stack[:4], *closed_form_entropies(terms), terms.success)


def chi_closed_form(omega, gamma, temperature, q=1.0):
    """Dense-coding capacity of `closed_form_engine`: chi = S(rho_bar) - S(rho).

    Unvalidated like `closed_form_engine`, so finite outside the domain:
    ``chi_closed_form(1, 1, 1, -0.5)`` is about 10837 bits, where a valid
    chi lies in [0, 2].
    """
    _, entropy_state, entropy_average, _ = closed_form_engine(omega, gamma, temperature, q)
    return entropy_average - entropy_state
