"""The capacity layer: the twirl, the reports and the engine table.  The engines'
agreement at a point is one parametrized test, `test_engines_agree`."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gravcat_coding.numeric as numeric_module
import gravcat_coding.verify as verify_module
from gravcat_coding import (
    Advantage,
    GravcatParams,
    InvalidStateError,
    NumericalNoiseWarning,
    SplitMix64,
    chi_closed_form,
    chi_numeric,
    classify_advantage,
    draw_samples,
    eigh,
    entropy_bits,
)
from gravcat_coding.closed_form import _thermal_terms, closed_form_engine, x_state
from gravcat_coding.coding import ENGINES, engine_report
from gravcat_coding.linalg import (
    _eigenvalues, _partial_trace_first, _symmetrized, check_density, two_qubit_matrix,
)
from gravcat_coding.numeric import (
    _gibbs, _hamiltonian, _marginal_replacement, _post_select, _twirl, numeric_engine,
)
from gravcat_coding.presets import ENGINE_NAMES
from conftest import (
    SIGNALS,
    basis_projector,
    bell_state,
    density_matrices,
    finite_floats,
    gibbs_state,
    gravcat_params,
    log_uniform_box,
    maximally_mixed,
    pure_states,
    state_report,
)


# --------------------------------------------------- ensemble average

def test_twirl_fixes_maximally_mixed():
    out = _twirl(maximally_mixed(4))
    assert np.abs(out - maximally_mixed(4)).max() < 1e-15


def test_twirl_of_product_basis_state():
    out = _twirl(basis_projector(0))
    assert np.allclose(out, np.diag([0.5, 0.0, 0.5, 0.0]), atol=1e-15)


def test_twirl_of_thermal_state_is_diagonal_halves():
    cf = _thermal_terms(1.0, 1.0, 1.0)
    rho = check_density(x_state(cf))
    out = _twirl(rho)
    lo = 0.5 * (cf.alpha_minus + cf.beta)
    hi = 0.5 * (cf.alpha_plus + cf.beta)
    assert np.abs(out - np.diag([lo, hi, lo, hi])).max() < 1e-14
    assert out.dtype == _marginal_replacement(rho).dtype == np.float64


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


def assert_exactly_symmetric(x) -> None:
    assert np.array_equal(x, x.swapaxes(-1, -2))


def recorded_twirls(monkeypatch, module) -> list:
    """(input, output) of every `_twirl` call that ``module`` makes."""
    calls = []

    def recording(rho):
        calls.append((rho, _twirl(rho)))
        return calls[-1][1]

    monkeypatch.setattr(module, "_twirl", recording)
    return calls


# no stack is re-symmetrized: each one handed to the twirl or to LAPACK is
# exactly symmetric, and so is what the twirl returns

def test_numeric_engine_twirls_exactly_symmetric_states(monkeypatch):
    # gamma = 0 at T = 1e-3 underflows the |00> weight, so q = 0 keeps |00><00|;
    # the engine forms no twirl and hands LAPACK the states and their reduced states
    twirls, solved = recorded_twirls(monkeypatch, numeric_module), []

    def recording(m):
        solved.append(m)
        return _eigenvalues(m)

    monkeypatch.setattr(numeric_module, "_eigenvalues", recording)
    gamma = np.array([0.0, 0.7])[:, np.newaxis, np.newaxis]
    temperature = np.array([1e-3, 0.05, 1.0])[:, np.newaxis]
    q = np.array([0.0, 0.3, 1.0])
    success = numeric_engine(1.0, gamma, temperature, q)[3]
    assert success[0, 0, 0] == 0.0
    assert twirls == []
    assert [x.shape for x in solved] == [(2, 3, 3, 4, 4), (2, 3, 3, 2, 2)]
    for x in solved:
        assert_exactly_symmetric(x)


def test_verify_twirls_exactly_symmetric_states(monkeypatch):
    calls = recorded_twirls(monkeypatch, verify_module)
    verify_module.verification_report(samples=300, seed=11)
    assert len(calls) == 1
    for x in calls[0]:
        assert x.shape == (2, 300, 4, 4)
        assert_exactly_symmetric(x)


@given(
    density_matrices(dim=4),
    st.lists(finite_floats(-1e-9, 1e-9), min_size=16, max_size=16),
)
@settings(max_examples=60)
def test_checked_states_and_their_twirls_are_exactly_symmetric(rho, noise):
    # off-diagonal noise below HERMITIAN_TOL leaves the trace as it was
    noise = np.array(noise).reshape(4, 4)
    np.fill_diagonal(noise, 0.0)
    a = two_qubit_matrix(rho + noise)
    assert_exactly_symmetric(a)
    assert_exactly_symmetric(_twirl(a))


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
    twirled = _twirl(rho)
    replaced = _marginal_replacement(rho)
    assert np.abs(twirled - replaced).max() < 1e-12


@given(density_matrices(dim=4))
@settings(max_examples=40)
def test_twirl_is_idempotent(rho):
    once = _twirl(rho)
    twice = _twirl(once)
    assert np.abs(once - twice).max() < 1e-12


def _verify_box(n, seed):
    omega, gamma, temperature, strength = draw_samples(SplitMix64(seed), n).T
    return omega, gamma, temperature, 1.0 - strength


@pytest.mark.parametrize("box", [_verify_box, log_uniform_box], ids=["verify", "golden"])
def test_numeric_engine_averages_have_the_entropy_of_the_twirl(box):
    # S(rho_bar) comes from the reduced state's spectrum; the twirl's own
    # 4x4 spectrum, the definitional route, stays the reference
    omega, gamma, temperature, q = box(5_000, 7)
    thermal = _gibbs(_hamiltonian(omega, gamma), temperature)
    states, _ = _post_select(thermal, q, full_support=True)
    got = numeric_engine(omega, gamma, temperature, q)[2]
    assert np.abs(got - entropy_bits(_eigenvalues(_twirl(states)))).max() < 1e-14


# -------------------------------------------------- numeric capacity

def test_capacity_of_maximally_mixed_is_zero(symmetry_scans):
    report = state_report(maximally_mixed(4))
    assert abs(report.chi) < 1e-10
    assert report.advantage is Advantage.NONE
    assert symmetry_scans == [0]  # no kernel scans: the reduced state is symmetric by construction


def _rotated_state(spectrum, seed):
    """Q diag(spectrum) Q^T for a seeded random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    return _symmetrized((q * np.asarray(spectrum)) @ q.T)


def test_capacity_keeps_the_clamp_policy_on_solved_spectra():
    # the eigenvalue-only solve still meets the entropy policy: a slightly
    # negative eigenvalue warns, a clearly negative one raises and is named
    with pytest.warns(NumericalNoiseWarning):
        report = state_report(_rotated_state([0.5, 0.3, 0.2 + 5e-10, -5e-10], 11))
    assert abs(report.state_spectrum[3] + 5e-10) < 1e-15
    with pytest.raises(InvalidStateError, match="-1.000000e-07") as info:
        state_report(_rotated_state([0.5, 0.3, 0.2 + 1e-7, -1e-7], 11))
    assert info.value.index == (3,)


def test_capacity_of_bell_state_is_two():
    report = state_report(bell_state())
    assert abs(report.chi - 2.0) < 1e-10
    assert report.entropy_state < 1e-12
    assert report.advantage is Advantage.OPTIMAL


def test_capacity_of_product_thermal_state():
    # at gamma = 0 the thermal state is a product, so chi = 1 - S(single qubit)
    rho = gibbs_state(GravcatParams(omega=1.0, gamma=0.0, temperature=1.0))
    weights = np.array([math.exp(-0.5), math.exp(0.5)])
    weights /= weights.sum()
    binary_entropy = float(-(weights * np.log2(weights)).sum())
    report = state_report(rho)
    assert abs(report.chi - (1.0 - binary_entropy)) < 1e-12
    assert report.advantage is Advantage.NONE


def test_report_decomposition_is_exact():
    report = state_report(gibbs_state(GravcatParams(1.0, 1.0, 1.0)))
    assert report.chi == report.entropy_average - report.entropy_state
    assert len(report.state_spectrum) == 4
    assert abs(sum(report.state_spectrum) - 1.0) < 1e-12


# ------------------------------------------------ closed-form capacity

def test_closed_form_hot_limit_has_no_capacity():
    report = engine_report(closed_form_engine, GravcatParams(1.0, 0.0, 1e9))
    assert abs(report.chi) < 1e-7
    assert report.advantage is Advantage.NONE


def _x_state_route(params, strength):
    # the closed-form report, and the numeric capacity of the closed-form X
    # state, post-selected by the numeric route where a strength is given
    closed = engine_report(closed_form_engine, params, strength)
    rho = check_density(x_state(_thermal_terms(params.omega, params.gamma, params.temperature)))
    numeric = state_report(rho if strength is None else _post_select(rho, 1.0 - strength)[0])
    assert np.abs(np.array(closed.state_spectrum) - np.array(numeric.state_spectrum)).max() < 1e-10
    assert closed.strength == strength
    assert strength is None or closed.success_probability is not None
    return closed.chi, numeric.chi


def _engine_route(params, strength):
    # chi_closed_form, and the capacity of the numeric engine's Gibbs state or chi_numeric
    point = (params.omega, params.gamma, params.temperature)
    if strength is None:
        return chi_closed_form(*point), state_report(gibbs_state(params)).chi
    return chi_closed_form(*point, 1.0 - strength), chi_numeric(*point, 1.0 - strength)


REFERENCE = st.just(GravcatParams(1.0, 1.0, 1.0))
# case -> (points, strengths (None: no measurement), the two routes to chi, tolerance)
AGREEMENT_CASES = {
    "reference": (REFERENCE, st.none(), _x_state_route, 1e-10),
    "reference-p=0.3": (REFERENCE, st.just(0.3), _x_state_route, 1e-9),
    "box": (gravcat_params(), st.none(), _engine_route, 1e-9),
    "box-measured": (gravcat_params(), finite_floats(0.0, 0.99), _engine_route, 1e-9),
}


@pytest.mark.parametrize("case", list(AGREEMENT_CASES))
@given(data=st.data())
@settings(max_examples=60)
def test_engines_agree(case, data):
    points, strengths, routes, tolerance = AGREEMENT_CASES[case]
    closed, numeric = routes(data.draw(points), data.draw(strengths))
    assert abs(closed - numeric) < tolerance


def test_bright_region_reaches_strong_advantage():
    report = engine_report(closed_form_engine, GravcatParams(1.0, 3.0, 0.01))
    assert report.chi >= 1.9
    assert report.advantage in (Advantage.VALID, Advantage.OPTIMAL)


@given(pure_states(dim=4))
@settings(max_examples=60)
def test_pure_state_capacity_is_one_plus_entanglement(rho):
    report = state_report(rho)
    entanglement = entropy_bits(eigh(_partial_trace_first(rho))[0])
    assert abs(report.chi - (1.0 + entanglement)) < 1e-10


@given(density_matrices(dim=4))
@settings(max_examples=60)
def test_capacity_range(rho):
    chi = state_report(rho).chi
    assert -1e-10 <= chi <= 2.0 + 1e-10


def test_no_advantage_without_coupling():
    for omega in (0.1, 0.7, 2.0, 5.0):
        for temperature in (0.05, 0.5, 2.0, 10.0):
            assert chi_closed_form(omega, 0.0, temperature) <= 1.0 + 1e-12


# ------------------------------------------------------ engine table

def test_engine_table_maps_each_parser_choice_to_its_own_engine():
    # the parser offers presets.ENGINE_NAMES; the table is keyed by name, so
    # reordering either module cannot swap the engines
    assert tuple(ENGINES) == ENGINE_NAMES
    for name in ENGINE_NAMES:
        module = importlib.import_module(f"gravcat_coding.{name}")
        assert ENGINES[name] is getattr(module, f"{name}_engine")


# ------------------------------------------------------ classification

def test_advantage_thresholds():
    assert classify_advantage(0.3) is Advantage.NONE
    assert classify_advantage(1.0) is Advantage.NONE
    assert classify_advantage(1.0 + 1e-9) is Advantage.VALID
    assert classify_advantage(1.9989) is Advantage.VALID
    assert classify_advantage(1.999) is Advantage.OPTIMAL
    assert classify_advantage(2.0) is Advantage.OPTIMAL
