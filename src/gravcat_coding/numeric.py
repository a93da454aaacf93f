"""The numeric engine: the matrix route to the gravcat state and its capacity.

Hamiltonian, Gibbs state, Kraus post-selection, Pauli twirl of the sender's
qubit and von Neumann entropies on stacks of real 4x4 matrices.  No closed
form enters: only the success floor (`MIN_SUCCESS_PROBABILITY` and
`check_success`) is shared with ``closed_form``, so each engine is the
other's oracle.
"""

from __future__ import annotations

import numpy as np

from .closed_form import MIN_SUCCESS_PROBABILITY, check_success
from .linalg import (
    _PAULI_I, _PAULI_X, _PAULI_Z, _eigenpairs, _eigenvalues, _partial_trace_first, _symmetrized,
    entropy_bits, from_spectrum, require_hermitian,
)

_SPLITTING = np.kron(_PAULI_I, _PAULI_Z) + np.kron(_PAULI_Z, _PAULI_I)
_EXCHANGE = np.kron(_PAULI_X, _PAULI_X)
_KET_00_PROJECTOR = np.diag([1.0, 0.0, 0.0, 0.0])


def _hamiltonian(omega, gamma) -> np.ndarray:
    """Stack of 4x4 Hamiltonians over broadcast ``omega`` and ``gamma``."""
    omega = np.asarray(omega, dtype=float)[..., np.newaxis, np.newaxis]
    gamma = np.asarray(gamma, dtype=float)[..., np.newaxis, np.newaxis]
    return 0.5 * omega * _SPLITTING - gamma * _EXCHANGE


def _gibbs(hamiltonian, temperature) -> np.ndarray:
    """Stack of thermal states exp(-H/T)/Z from one eigendecomposition per Hamiltonian.

    ``_eigenpairs`` solves the float64 stack of ``hamiltonian`` alone, with no
    symmetry scan: the engines build it symmetric and ``thermal.gibbs_numeric``
    scans outside input first.  The weights broadcast over ``temperature``.
    They are taken relative to the ground energy, so they lie in [0, 1] and
    nothing overflows at any valid temperature.  Energy gaps reach 2 sqrt(2)
    times the largest entry of H, so a matrix whose largest entry reaches
    2^1021 is scaled down with its temperature by an exact 2^-4 (the state
    depends only on H/T).  A stack with such an entry, or with an inf or
    NaN, is scanned first, which refuses a non-finite entry with
    ``NotHermitianError``.
    """
    temperature = np.asarray(temperature)
    magnitude = np.abs(hamiltonian)
    if not magnitude.max(initial=0.0) < 2.0**1021:  # one reduction; NaN and inf take the branch
        require_hermitian(hamiltonian)  # refuses a non-finite entry before the solver sees it
        huge = magnitude.max(axis=(-2, -1)) >= 2.0**1021
        scale = np.where(huge, 2.0**-4, 1.0)
        hamiltonian = hamiltonian * scale[..., np.newaxis, np.newaxis]
        temperature = temperature * scale
    energies, vectors = _eigenpairs(hamiltonian)
    ground = energies[..., -1:]  # eigenvalues are descending
    with np.errstate(over="ignore"):  # a gap/T past the double range is a weight of exactly 0
        exponents = (ground - energies) / temperature[..., np.newaxis]
    weights = np.exp(exponents)
    return from_spectrum(vectors, weights / weights.sum(axis=-1, keepdims=True))


def _post_select(rho, q, *, full_support=False):
    """(Q(x)Q) rho (Q(x)Q)^dagger / P_s and P_s over a stack, with Q = diag(1, sqrt(q)).

    Q leaves |0> untouched and damps |1>: q = 1 (p = 0) is the identity and
    q = 0 (p = 1) the projector onto |0>.  Q(x)Q is diagonal with
    k = (1, s, s, s^2), s = sqrt(q), so the conjugation scales entry (i, j)
    by k_i k_j.  A vanishing P_s raises ``ZeroSuccessProbabilityError``,
    except at q = 0 for ``full_support`` states, such as a Gibbs state at
    finite T: Q(x)Q then projects onto |00>, so the kept state is |00><00|
    however small rho_00,00 is, and |00><00| with weight 1 stands in for it
    where that weight underflows.
    """
    s = np.sqrt(np.asarray(q, dtype=float))
    k = np.empty(s.shape + (4,))
    k[..., 0] = 1.0
    k[..., 1] = k[..., 2] = s
    k[..., 3] = s * s
    kept = rho * (k[..., :, np.newaxis] * k[..., np.newaxis, :])
    success = weight = kept.diagonal(axis1=-2, axis2=-1).sum(axis=-1)
    # one reduction on every call; NaN takes this branch and leaves it unchanged
    if not success.min(initial=np.inf) >= MIN_SUCCESS_PROBABILITY:
        projective = (success < MIN_SUCCESS_PROBABILITY) & (s == 0.0) & full_support
        check_success(np.where(projective, 1.0, success))
        kept = np.where(projective[..., np.newaxis, np.newaxis], _KET_00_PROJECTOR, kept)
        weight = np.where(projective, 1.0, success)
    return kept / weight[..., np.newaxis, np.newaxis], success


# I, X, XZ and Z on the sender's qubit are signed permutations of the basis
# |00>, |01>, |10>, |11>: X (x) I swaps the two halves, Z (x) I flips the
# sign of the second half
_SWAP_HALVES = np.array([2, 3, 0, 1])
_HALF_SIGNS = np.outer([1.0, 1.0, -1.0, -1.0], [1.0, 1.0, -1.0, -1.0])


def _twirl(rho) -> np.ndarray:
    """Pauli twirl of the sender's qubit over a stack of states, re-symmetrized.

    The four terms are u rho u^dagger for u = s (x) I with s = I, X, Y, Z, in
    that order.  Since sigma_y = i sigma_x sigma_z, the Y term equals
    (sigma_x sigma_z) rho (sigma_x sigma_z)^T, so every u is a real signed
    permutation and each term is ``rho`` with its rows and columns permuted
    and its entries sign-flipped.  Each entry of a term is one entry of
    ``rho`` times +-1, exactly what the product ``u @ rho @ u.T`` gives.
    """
    swapped = rho[..., _SWAP_HALVES[:, np.newaxis], _SWAP_HALVES]
    return _symmetrized(0.25 * (rho + swapped + swapped * _HALF_SIGNS + rho * _HALF_SIGNS))


def _marginal_replacement(rho) -> np.ndarray:
    """(I/2) (x) tr_A(rho) over a stack of two-qubit states."""
    out = np.zeros_like(rho)
    out[..., :2, :2] = out[..., 2:, 2:] = 0.5 * _partial_trace_first(rho)
    return out


def _entropies(rho, average):
    """(spectrum, S(rho), S(average)) over a stack of two-qubit states and their twirls,
    where ``spectrum[i]`` is the i-th largest eigenvalue of ``rho`` over the stack."""
    spectrum = _eigenvalues(rho)
    entropy_state = entropy_bits(spectrum)
    leading = spectrum.transpose(-1, *range(spectrum.ndim - 1))
    return leading, entropy_state, entropy_bits(_eigenvalues(average))


def numeric_engine(omega, gamma, temperature, q):
    """(spectrum, S(rho), S(rho_bar), success) through the matrix route, with q = 1 - p.

    Each stage runs on the shape of its own inputs: the eigenpairs on
    ``(omega, gamma)``, the weights on ``(omega, gamma, T)``, post-selection,
    twirl and spectra on the broadcast block; no closed form enters.  An
    unvalidated kernel: callers run ``thermal.check_domain`` first.
    """
    thermal = _gibbs(_hamiltonian(omega, gamma), temperature)
    state, success = _post_select(thermal, q, full_support=True)
    return (*_entropies(state, _twirl(state)), success)


def chi_numeric(omega, gamma, temperature, q=1.0):
    """Dense-coding capacity of `numeric_engine`: chi = S(rho_bar) - S(rho)."""
    _, entropy_state, entropy_average, _ = numeric_engine(omega, gamma, temperature, q)
    return entropy_average - entropy_state
