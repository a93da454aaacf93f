import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from gravcat_coding import (
    InvalidStateError,
    NotHermitianError,
    NumericalNoiseWarning,
    eigh,
    entropy_bits,
)
from gravcat_coding.linalg import (
    _PAULI_I,
    _PAULI_X,
    _PAULI_Z,
    _eigenvalues,
    _partial_trace_first,
    check_density,
    two_qubit_matrix,
)
from gravcat_coding.numeric import _EXCHANGE, _SPLITTING
from conftest import (
    SIGNALS,
    assert_same_bits,
    basis_projector,
    bell_state,
    density_matrices,
    hermitian_matrices,
    maximally_mixed,
)

SQRT2 = math.sqrt(2.0)
# the model's Hamiltonian at omega = 1, gamma = 1
COUPLED = 0.5 * _SPLITTING - _EXCHANGE


# ---------------------------------------------------------------- eigh

def test_eigh_identity():
    values, _ = eigh(np.eye(4))
    assert np.allclose(values, np.ones(4), atol=0)


def test_eigh_diagonal_input_sorted_descending():
    values, _ = eigh(np.diag([-3.0, 1.0, 3.0, -1.0]))
    assert np.allclose(values, [3.0, 1.0, -1.0, -3.0], atol=1e-14)


def test_eigh_coupled_two_block_matrix():
    # block {|00>,|11>} is [[1,-1],[-1,-1]] -> +-sqrt(2); block {|01>,|10>}
    # is [[0,-1],[-1,0]] -> +-1, so the full spectrum is known by hand
    values, _ = eigh(COUPLED)
    assert np.allclose(values, [SQRT2, 1.0, -1.0, -SQRT2], atol=1e-12)


def test_eigh_rejects_non_hermitian(symmetry_scans):
    with pytest.raises(NotHermitianError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert symmetry_scans == [1]  # input from outside the package is scanned once
    with pytest.raises(NotHermitianError):
        eigh(np.full((3, 3), np.nan))
    with pytest.raises(NotHermitianError):
        eigh(np.ones((2, 3)))


@given(hermitian_matrices(dim=4))
def test_eigh_reconstructs_and_is_orthonormal(m):
    values, v = eigh(m)
    rebuilt = (v * values) @ v.T
    assert np.abs(rebuilt - m).max() < 1e-10
    gram = v.T @ v
    assert np.abs(gram - np.eye(4)).max() < 1e-10
    assert (np.diff(values) <= 1e-15).all()


@given(hermitian_matrices(dim=4))
def test_eigh_deterministic_for_identical_bits(m):
    first = eigh(m.copy())
    second = eigh(m.copy())
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


@pytest.mark.parametrize("route", [eigh, check_density], ids=["eigh", "check_density"])
def test_complex_input_is_refused(route):
    # a valid Hermitian state; dropping its imaginary part would change it silently
    rho = maximally_mixed(4).astype(complex)
    rho[1, 2], rho[2, 1] = 0.1j, -0.1j
    with pytest.raises(TypeError, match="dtype complex128"):
        route(rho)


def test_eigh_runs_in_float64():
    # every real input dtype runs in float64 arithmetic (LAPACK's dsyevd)
    real = np.array([[2.0, 1.0], [1.0, 2.0]])
    for m in (real, real.astype(np.int64), real.astype(np.float32), real.tolist()):
        values, vectors = eigh(m)
        assert vectors.dtype == values.dtype == np.float64
        assert np.abs((vectors * values) @ vectors.T - real).max() < 1e-15


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
def test_eigenvalues_match_eigh_in_descending_order(shape):
    g = np.random.default_rng(len(shape)).standard_normal(shape + (4, 4))
    rho = g @ g.swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[..., np.newaxis, np.newaxis]
    values, want = _eigenvalues(rho), eigh(rho)[0]
    assert values.shape == want.shape == shape + (4,)
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert (np.abs(values - want) <= 1e-14 * scale).all()
    assert (np.diff(values, axis=-1) <= 0.0).all()


# ------------------------------------------------------------ entropy

def von_neumann_entropy(rho) -> float:
    """S(rho) = -tr(rho log2 rho) in bits, from the spectrum of ``eigh``."""
    return float(entropy_bits(eigh(rho)[0]))


def test_entropy_maximally_mixed():
    assert math.isclose(von_neumann_entropy(maximally_mixed(4)), 2.0, abs_tol=1e-12)


def test_entropy_pure_states_vanish():
    assert von_neumann_entropy(basis_projector(0)) < 1e-12
    assert von_neumann_entropy(bell_state()) < 1e-12


def test_entropy_known_diagonal():
    rho = np.diag([0.5, 0.5, 0.0, 0.0])
    assert math.isclose(von_neumann_entropy(rho), 1.0, abs_tol=1e-12)


def test_entropy_clamps_rounding_noise_silently():
    rho = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert von_neumann_entropy(rho) < 1e-8


def test_entropy_warns_in_the_noisy_band():
    rho = np.diag([1.0 + 5e-9, -5e-9, 0.0, 0.0])
    with pytest.warns(NumericalNoiseWarning):
        von_neumann_entropy(rho)


def test_entropy_rejects_genuinely_negative_eigenvalues():
    rho = np.diag([1.0 + 5e-8, -5e-8, 0.0, 0.0])
    with pytest.raises(InvalidStateError):
        von_neumann_entropy(rho)


def test_entropy_policy_over_a_stack_of_spectra():
    spectra = np.array([[[0.5, 0.5, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                        [[0.25, 0.25, 0.25, 0.25], [1.0 + 5e-9, -5e-9, 0.0, 0.0]]])
    with pytest.warns(NumericalNoiseWarning):
        out = entropy_bits(spectra)
    assert out.shape == (2, 2)
    assert np.allclose(out, [[1.0, 0.0], [2.0, 0.0]], atol=1e-12, rtol=0)
    spectra[1, 0, 2] = -5e-8
    with pytest.raises(InvalidStateError) as info:
        entropy_bits(spectra)
    assert info.value.index == (1, 0, 2)


def _entropy_with_full_clamp_policy(eigenvalues):
    """`entropy_bits` with its full clamp policy: both floors tested element-wise
    on every call, with no whole-stack reduction first."""
    lam = np.asarray(eigenvalues, dtype=float)
    InvalidStateError.raise_first(lam < -1e-8, lam, "eigenvalue {:.6e} is below the -1e-08 floor")
    noisy = lam < -1e-10
    if noisy.any():
        warnings.warn(f"clamping noisy eigenvalue {lam[noisy][0]:.3e} to zero",
                      NumericalNoiseWarning)
    kept = np.where(lam <= 0.0, 1.0, lam)
    return np.maximum(-(kept * np.log2(kept)).sum(axis=-1), 0.0)


def _entropy_outcome(entropy, spectra):
    """(entropies or (message, index) of the error, [(category, message)] of the warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = entropy(spectra)
        except InvalidStateError as exc:
            result = (str(exc), exc.index)
    return result, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("samples", [1, 9])
@pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
@pytest.mark.parametrize(
    "low", [0.0, -5e-11, -5e-9, -5e-8], ids=["zeros", "silent", "noisy", "invalid"]
)
def test_entropy_one_reduction_guard_keeps_the_bits_of_the_full_policy(samples, nan, low):
    rng = np.random.default_rng(samples)
    spectra = rng.dirichlet(np.ones(4), size=samples)
    spectra[:, 2:] = 0.0  # exact zeros, which take the 1 log 1 stand-in
    if nan:
        spectra[0, 0] = np.nan  # below no floor, but must not hide the floors of the others
    spectra[-1, -1] = low
    got, got_warnings = _entropy_outcome(entropy_bits, spectra)
    want, want_warnings = _entropy_outcome(_entropy_with_full_clamp_policy, spectra)
    assert got_warnings == want_warnings
    assert len(got_warnings) == (-1e-8 <= low < -1e-10)
    if low < -1e-8:
        assert got == want
        assert got[1] == (samples - 1, 3)
    else:
        assert_same_bits(got, want)
        assert np.isnan(got[0]) == nan


@given(density_matrices(dim=4))
@settings(max_examples=60)
def test_entropy_invariant_under_pauli_conjugation(rho):
    # sigma_x sigma_z = -i sigma_y is the real stand-in for sigma_y
    base = von_neumann_entropy(rho)
    xz = _PAULI_X @ _PAULI_Z
    for left, right in ((_PAULI_X, xz), (_PAULI_Z, _PAULI_I), (xz, xz)):
        u = np.kron(left, right)
        rotated = u @ rho @ u.T
        assert abs(von_neumann_entropy(rotated) - base) < 1e-10


# ------------------------------ tensor layout of the model's operators

def test_tensor_of_identities():
    # the identity signal leaves the state alone
    assert np.array_equal(SIGNALS[0], np.eye(4))


def test_tensor_basis_ordering():
    # the sender's qubit is the first factor, the slow index: |00>,|01>,|10>,|11>
    assert np.array_equal(SIGNALS[3], np.diag([1.0, 1.0, -1.0, -1.0]))
    assert np.array_equal(_SPLITTING, np.diag([2.0, 0.0, 0.0, -2.0]))


def test_tensor_coupling_layout():
    assert np.array_equal(_EXCHANGE, np.fliplr(np.eye(4)))


def test_tensor_of_real_factors_stays_real():
    for operator in (_SPLITTING, _EXCHANGE, *SIGNALS):
        assert operator.dtype == np.float64
    # the Y signal is sigma_x sigma_z (x) I = -i sigma_y (x) I
    sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert np.array_equal(SIGNALS[2], -1j * np.kron(sigma_y, np.eye(2)))


# ------------------------------------------------------ partial trace

def test_partial_trace_maximally_mixed():
    out = _partial_trace_first(maximally_mixed(4))
    assert np.allclose(out, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_basis_projector():
    out = _partial_trace_first(basis_projector(0))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-15)


def test_partial_trace_requires_two_qubits():
    # the public routes check the shape before the kernel reshapes it
    with pytest.raises(InvalidStateError, match="4x4"):
        two_qubit_matrix(np.eye(2) / 2.0)
    with pytest.raises(InvalidStateError, match="4x4"):
        two_qubit_matrix(np.broadcast_to(maximally_mixed(4), (2, 4, 4)))


@given(density_matrices(dim=2), density_matrices(dim=2))
@settings(max_examples=60)
def test_partial_trace_of_product_recovers_second_factor(a, b):
    out = _partial_trace_first(np.kron(a, b))
    assert np.abs(out - b).max() < 1e-12
    assert abs(float(np.trace(out)) - 1.0) < 1e-12
    stacked = _partial_trace_first(np.stack([np.kron(a, b), np.kron(b, a)]))
    assert np.array_equal(stacked[0], out) and np.abs(stacked[1] - a).max() < 1e-12


# ------------------------------------------------------- check_density

def test_check_density_accepts_a_state():
    rho = maximally_mixed(4)
    out = check_density(rho)
    assert np.array_equal(out, rho) and out.dtype == np.float64
    assert check_density(rho.astype(np.float32)).dtype == np.float64


def test_check_density_rejects_bad_trace():
    with pytest.raises(InvalidStateError):
        check_density(np.eye(4))


def test_check_density_rejects_negative():
    with pytest.raises(InvalidStateError):
        check_density(np.diag([1.5, -0.5, 0.0, 0.0]))
    # positivity is left to the entropy policy without check_psd
    assert check_density(np.diag([1.5, -0.5, 0.0, 0.0]), check_psd=False).shape == (4, 4)


@pytest.mark.parametrize(
    "bad, message",
    [
        (np.diag([0.4, 0.3, 0.2, 0.2]), "trace must be 1"),                # trace 1.1
        (np.diag([0.5, 0.3, 0.2 + 1e-6, -1e-6]), "negative eigenvalue"),
        (np.triu(np.full((4, 4), 0.25)), "Hermitian"),
    ],
)
def test_stacked_state_check_names_the_bad_matrix(bad, message, symmetry_scans):
    stack = np.broadcast_to(maximally_mixed(4), (3, 5, 4, 4)).copy()
    stack[2, 1] = bad
    with pytest.raises((InvalidStateError, NotHermitianError), match=message) as info:
        check_density(stack)
    assert info.value.index == (2, 1)
    assert symmetry_scans == [1]  # input from outside the package is scanned once
    assert np.array_equal(check_density(stack[:2]), stack[:2])
