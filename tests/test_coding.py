import math

import numpy as np
import pytest
from hypothesis import given, settings

from gravcat_coding import (
    Advantage,
    GravcatParams,
    InvalidStateError,
    NumericalNoiseWarning,
    assemble_thermal_state,
    build_hamiltonian,
    capacity_closed_form,
    capacity_numeric,
    classify_advantage,
    ensemble_average,
    ensemble_average_via_marginal,
    eigh,
    entropy_bits,
    gibbs_numeric,
    thermal_closed_form,
)
from gravcat_coding.closed_form import _thermal_terms, x_state
from gravcat_coding.coding import _twirl
from gravcat_coding.linalg import _partial_trace_first, _symmetrized
from gravcat_coding.thermal import _gibbs, _hamiltonian
from gravcat_coding.weak_measurement import _post_select
from conftest import (
    SIGNALS,
    basis_projector,
    bell_state,
    density_matrices,
    gravcat_params,
    maximally_mixed,
    pure_states,
)


# --------------------------------------------------- ensemble average

def test_twirl_fixes_maximally_mixed():
    out = ensemble_average(maximally_mixed(4))
    assert np.abs(out - maximally_mixed(4)).max() < 1e-15


def test_twirl_of_product_basis_state():
    out = ensemble_average(basis_projector(0))
    assert np.allclose(out, np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-15)


def test_twirl_of_thermal_state_is_diagonal_halves():
    params = GravcatParams(1.0, 1.0, 1.0)
    cf = thermal_closed_form(params)
    out = ensemble_average(assemble_thermal_state(cf))
    lo = 0.5 * (cf.alpha_minus + cf.beta)
    hi = 0.5 * (cf.alpha_plus + cf.beta)
    assert np.abs(out - np.diag([lo, hi, lo, hi])).max() < 1e-14
    assert out.dtype == ensemble_average_via_marginal(assemble_thermal_state(cf)).dtype == np.float64


def test_twirl_matches_the_complex_pauli_sum():
    # the real factor sigma_x sigma_z stands in for sigma_y; a real stack must
    # get the textbook sum (1/4) sum_s (s (x) I) rho (s (x) I)^dagger over the
    # complex Pauli matrices
    rng = np.random.default_rng(20240117)
    g = rng.standard_normal((64, 4, 4))
    rho = g @ g.swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, np.newaxis, np.newaxis]
    paulis = (
        np.eye(2),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[0.0, -1.0j], [1.0j, 0.0]]),
        np.array([[1.0, 0.0], [0.0, -1.0]]),
    )
    signals = [np.kron(s, np.eye(2)) for s in paulis]
    textbook = 0.25 * sum(u @ rho @ u.conj().T for u in signals)
    twirled = _twirl(rho)
    assert twirled.dtype == np.float64
    assert np.abs(twirled - textbook).max() <= 1e-15


@pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4), (3, 5, 4, 4)])
def test_twirl_has_the_bits_of_the_matrix_products(shape):
    # each signal is a signed permutation, so permuting and sign-flipping the
    # entries gives exactly the bits of u @ rho @ u.T, summed in the same order
    g = np.random.default_rng(len(shape)).standard_normal(shape)
    rho = g + g.swapaxes(-1, -2)
    want = _symmetrized(0.25 * sum(u @ rho @ u.T for u in SIGNALS))
    assert np.array_equal(_twirl(rho), want)


@pytest.mark.parametrize("shape", [(), (3,)])
def test_numeric_route_runs_in_real_arithmetic(shape):
    # every matrix on the route is real symmetric, so eigh runs dsyevd on it
    omega, gamma, temperature, q = (np.full(shape, v) for v in (0.7, 1.3, 0.4, 0.6))
    hamiltonian = _hamiltonian(omega, gamma)
    rho = _gibbs(hamiltonian, temperature)
    measured = _post_select(rho, q)[0]
    thermal = _thermal_terms(omega, gamma, temperature)
    for m in (hamiltonian, rho, measured, x_state(thermal, q), _twirl(measured)):
        assert m.dtype == np.float64 and m.shape == shape + (4, 4)


@given(density_matrices(dim=4))
@settings(max_examples=80)
def test_twirl_equals_marginal_replacement(rho):
    twirled = ensemble_average(rho)
    replaced = ensemble_average_via_marginal(rho)
    assert np.abs(twirled - replaced).max() < 1e-12


@given(density_matrices(dim=4))
@settings(max_examples=40)
def test_twirl_is_idempotent(rho):
    once = ensemble_average(rho)
    twice = ensemble_average(once)
    assert np.abs(once - twice).max() < 1e-12


# -------------------------------------------------- numeric capacity

def test_capacity_of_maximally_mixed_is_zero(symmetry_scans):
    report = capacity_numeric(maximally_mixed(4))
    assert abs(report.chi) < 1e-10
    assert report.advantage is Advantage.NONE
    assert symmetry_scans == [1]  # the input; its twirl is symmetric by construction


def _rotated_state(spectrum, seed):
    """Q diag(spectrum) Q^T for a seeded random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    return _symmetrized((q * np.asarray(spectrum)) @ q.T)


def test_capacity_keeps_the_clamp_policy_on_solved_spectra():
    # the eigenvalue-only solve still meets the entropy policy: a slightly
    # negative eigenvalue warns, a clearly negative one raises and is named
    with pytest.warns(NumericalNoiseWarning):
        report = capacity_numeric(_rotated_state([0.5, 0.3, 0.2 + 5e-10, -5e-10], 11))
    assert abs(report.state_spectrum[3] + 5e-10) < 1e-15
    with pytest.raises(InvalidStateError, match="-1.000000e-07") as info:
        capacity_numeric(_rotated_state([0.5, 0.3, 0.2 + 1e-7, -1e-7], 11))
    assert info.value.index == (3,)


def test_capacity_of_bell_state_is_two():
    report = capacity_numeric(bell_state())
    assert abs(report.chi - 2.0) < 1e-10
    assert report.entropy_state < 1e-12
    assert report.advantage is Advantage.OPTIMAL


def test_capacity_of_product_thermal_state():
    # at gamma = 0 the thermal state is a product, so chi = 1 - S(single qubit)
    params = GravcatParams(omega=1.0, gamma=0.0, temperature=1.0)
    rho = gibbs_numeric(build_hamiltonian(params), 1.0)
    weights = np.array([math.exp(-0.5), math.exp(0.5)])
    weights /= weights.sum()
    binary_entropy = float(-(weights * np.log2(weights)).sum())
    report = capacity_numeric(rho)
    assert abs(report.chi - (1.0 - binary_entropy)) < 1e-12
    assert report.advantage is Advantage.NONE


def test_report_decomposition_is_exact():
    report = capacity_numeric(gibbs_numeric(build_hamiltonian(GravcatParams(1, 1, 1)), 1.0))
    assert report.chi == report.entropy_average - report.entropy_state
    assert len(report.state_spectrum) == 4
    assert abs(sum(report.state_spectrum) - 1.0) < 1e-12


# ------------------------------------------------ closed-form capacity

def test_closed_form_hot_limit_has_no_capacity():
    report = capacity_closed_form(GravcatParams(1.0, 0.0, 1e9))
    assert abs(report.chi) < 1e-7
    assert report.advantage is Advantage.NONE


def test_closed_form_matches_numeric_at_reference_point():
    params = GravcatParams(1.0, 1.0, 1.0)
    closed = capacity_closed_form(params)
    numeric = capacity_numeric(assemble_thermal_state(thermal_closed_form(params)))
    assert abs(closed.chi - numeric.chi) < 1e-10
    assert np.abs(np.array(closed.state_spectrum) - np.array(numeric.state_spectrum)).max() < 1e-10


@given(gravcat_params())
@settings(max_examples=60)
def test_closed_form_matches_numeric_everywhere(params):
    closed = capacity_closed_form(params)
    numeric = capacity_numeric(gibbs_numeric(build_hamiltonian(params), params.temperature))
    assert abs(closed.chi - numeric.chi) < 1e-9


def test_bright_region_reaches_strong_advantage():
    report = capacity_closed_form(GravcatParams(omega=1.0, gamma=3.0, temperature=0.01))
    assert report.chi >= 1.9
    assert report.advantage in (Advantage.VALID, Advantage.OPTIMAL)


@given(pure_states(dim=4))
@settings(max_examples=60)
def test_pure_state_capacity_is_one_plus_entanglement(rho):
    report = capacity_numeric(rho)
    entanglement = entropy_bits(eigh(_partial_trace_first(rho))[0])
    assert abs(report.chi - (1.0 + entanglement)) < 1e-10


@given(density_matrices(dim=4))
@settings(max_examples=60)
def test_capacity_range(rho):
    chi = capacity_numeric(rho).chi
    assert -1e-10 <= chi <= 2.0 + 1e-10


def test_no_advantage_without_coupling():
    for omega in (0.1, 0.7, 2.0, 5.0):
        for temperature in (0.05, 0.5, 2.0, 10.0):
            params = GravcatParams(omega=omega, gamma=0.0, temperature=temperature)
            assert capacity_closed_form(params).chi <= 1.0 + 1e-12


# ------------------------------------------------------ classification

def test_advantage_thresholds():
    assert classify_advantage(0.3) is Advantage.NONE
    assert classify_advantage(1.0) is Advantage.NONE
    assert classify_advantage(1.0 + 1e-9) is Advantage.VALID
    assert classify_advantage(1.9989) is Advantage.VALID
    assert classify_advantage(1.999) is Advantage.OPTIMAL
    assert classify_advantage(2.0) is Advantage.OPTIMAL
