import math

import numpy as np
import pytest
from hypothesis import given, settings

import gravcat_coding.verify as verify_module
from gravcat_coding import (
    AxisSpec,
    DegenerateGeometryError,
    GravcatGeometry,
    GravcatParams,
    InvalidParameterError,
    InvalidStateError,
    OutOfRangeError,
    apply_qwm,
    assemble_thermal_state,
    build_hamiltonian,
    check_domain,
    coupling_from_geometry,
    draw_samples,
    eigh,
    entropy_bits,
    evaluate_sweep,
    gibbs_numeric,
    optimize_strength_many,
    thermal_closed_form,
    verification_report,
)
from gravcat_coding.closed_form import closed_form_engine
from gravcat_coding.coding import engine_report
from gravcat_coding.linalg import _partial_trace_first
from conftest import boltzmann_weights, gravcat_params, maximally_mixed


# ------------------------------------------------------- Hamiltonian

def test_hamiltonian_non_interacting_limit():
    h = build_hamiltonian(GravcatParams(omega=1.0, gamma=0.0, temperature=1.0))
    assert np.array_equal(h, np.diag([1.0, 0.0, 0.0, -1.0]))


def test_hamiltonian_pure_coupling_limit():
    params = GravcatParams(omega=0.0, gamma=1.0, temperature=1.0, allow_degenerate_omega=True)
    assert np.array_equal(build_hamiltonian(params), -np.fliplr(np.eye(4)))


def test_hamiltonian_nonzero_pattern():
    h = build_hamiltonian(GravcatParams(omega=2.0, gamma=0.5, temperature=1.0))
    expected = np.diag([2.0, 0.0, 0.0, -2.0]) - 0.5 * np.fliplr(np.eye(4))
    assert np.array_equal(h, expected)


def test_hamiltonian_spectrum_is_theta_and_gamma_pairs():
    params = GravcatParams(omega=1.0, gamma=1.0, temperature=1.0)
    energies, _ = eigh(build_hamiltonian(params))
    root2 = math.sqrt(2.0)
    assert np.allclose(energies, [root2, 1.0, -1.0, -root2], atol=1e-12)


# ---------------------------------------------------------- geometry

def test_coupling_vanishes_at_zero_offset():
    geom = GravcatGeometry(G=1.0, mass=2.0, d_prime=3.0, L=0.0)
    assert coupling_from_geometry(geom) == 0.0


def test_coupling_hand_evaluated_point():
    # d = sqrt(4 - 3) = 1, so gamma = (2*1/2)(1/1 - 1/2) = 1/2
    geom = GravcatGeometry(G=2.0, mass=1.0, d_prime=2.0, L=math.sqrt(3.0))
    assert math.isclose(coupling_from_geometry(geom), 0.5, rel_tol=0, abs_tol=1e-12)


def test_coupling_vanishes_at_large_separation():
    geom = GravcatGeometry(G=1.0, mass=1.0, d_prime=1e9, L=1.0)
    assert 0.0 <= coupling_from_geometry(geom) < 1e-9


def test_coupling_monotone_in_offset():
    couplings = [
        coupling_from_geometry(GravcatGeometry(G=1.0, mass=1.0, d_prime=2.0, L=l))
        for l in np.linspace(0.0, 1.999, 50)
    ]
    assert all(b > a for a, b in zip(couplings, couplings[1:]))


def test_degenerate_geometry_rejected():
    with pytest.raises(DegenerateGeometryError):
        GravcatGeometry(G=1.0, mass=1.0, d_prime=2.0, L=2.0)
    with pytest.raises(InvalidParameterError):
        GravcatGeometry(G=-1.0, mass=1.0, d_prime=2.0, L=0.0)


# -------------------------------------------------- parameter checks

def test_params_validation():
    with pytest.raises(InvalidParameterError, match="temperature must be positive"):
        GravcatParams(omega=1.0, gamma=0.0, temperature=0.0)
    with pytest.raises(InvalidParameterError, match="temperature must be positive"):
        GravcatParams(omega=1.0, gamma=0.0, temperature=1e-7)
    with pytest.raises(InvalidParameterError):
        GravcatParams(omega=0.0, gamma=1.0, temperature=1.0)
    with pytest.raises(InvalidParameterError):
        GravcatParams(omega=-1.0, gamma=1.0, temperature=1.0)
    with pytest.raises(InvalidParameterError):
        GravcatParams(omega=1.0, gamma=-0.5, temperature=1.0)
    with pytest.raises(InvalidParameterError):
        GravcatParams(omega=math.nan, gamma=0.0, temperature=1.0)
    with pytest.raises(TypeError):  # None is no number, not a parameter left unchecked
        GravcatParams(omega=1.0, gamma=None, temperature=1.0)
    # the degenerate gap is an explicit opt-in
    params = GravcatParams(omega=0.0, gamma=1.0, temperature=1.0, allow_degenerate_omega=True)
    assert params.theta == 1.0


# --------------------------------------------------- closed form

def test_closed_form_matches_unshifted_formulas():
    # direct transcription with plain cosh/sinh, valid away from overflow
    params = GravcatParams(omega=1.3, gamma=0.7, temperature=0.9)
    theta = params.theta
    z = 2.0 * (math.cosh(theta / 0.9) + math.cosh(0.7 / 0.9))
    cf = thermal_closed_form(params)
    assert math.isclose(
        cf.alpha_minus,
        (theta * math.cosh(theta / 0.9) - 1.3 * math.sinh(theta / 0.9)) / (z * theta),
        rel_tol=1e-13,
    )
    assert math.isclose(
        cf.alpha_plus,
        (theta * math.cosh(theta / 0.9) + 1.3 * math.sinh(theta / 0.9)) / (z * theta),
        rel_tol=1e-13,
    )
    assert math.isclose(cf.beta, math.cosh(0.7 / 0.9) / z, rel_tol=1e-13)
    assert math.isclose(cf.kappa, 0.7 * math.sinh(theta / 0.9) / (z * theta), rel_tol=1e-13)
    assert math.isclose(cf.eta, math.sinh(0.7 / 0.9) / z, rel_tol=1e-13)
    assert math.isclose(cf.z, z * math.exp(-theta / 0.9), rel_tol=1e-13)  # Z exp(-theta/T)


def test_closed_form_infinite_temperature_limit():
    cf = thermal_closed_form(GravcatParams(omega=1.0, gamma=0.0, temperature=1e9))
    for value in (cf.alpha_minus, cf.alpha_plus, cf.beta):
        assert abs(value - 0.25) < 1e-8
    assert abs(cf.kappa) < 1e-8 and abs(cf.eta) < 1e-8


def test_closed_form_zero_coupling_kills_offdiagonals():
    cf = thermal_closed_form(GravcatParams(omega=2.0, gamma=0.0, temperature=0.3))
    assert cf.kappa == 0.0
    assert cf.eta == 0.0


@given(gravcat_params())
@settings(max_examples=80)
def test_closed_form_invariants(params):
    cf = thermal_closed_form(params)
    assert math.isclose(params.theta**2, params.omega**2 + params.gamma**2, rel_tol=1e-12)
    assert abs(cf.alpha_minus + cf.alpha_plus + 2.0 * cf.beta - 1.0) < 1e-12
    assert cf.alpha_minus > 0.0 and cf.alpha_plus > 0.0 and cf.beta > 0.0
    assert cf.kappa >= 0.0 and cf.eta >= 0.0


@given(gravcat_params())
@settings(max_examples=50)
def test_closed_form_state_matches_gibbs_oracle(params):
    rho_cf = assemble_thermal_state(thermal_closed_form(params))
    rho_num = gibbs_numeric(build_hamiltonian(params), params.temperature)
    assert np.abs(rho_cf - rho_num).max() < 1e-10


# --------------------------------------------------- assembled state

def test_assembled_hot_state_is_maximally_mixed():
    rho = assemble_thermal_state(thermal_closed_form(GravcatParams(1.0, 0.0, 1e9)))
    assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-8
    assert rho.shape == (4, 4) and rho.dtype == np.float64


def test_assembled_cold_state_is_ground_projector():
    params = GravcatParams(omega=1.0, gamma=1.0, temperature=0.01)
    rho = assemble_thermal_state(thermal_closed_form(params))
    _, vectors = eigh(build_hamiltonian(params))
    ground = vectors[:, -1]  # eigenvalues sorted descending
    fidelity = float(ground @ rho @ ground)
    assert fidelity > 1.0 - 1e-6


def test_assemble_rejects_non_positive_entries():
    cf = thermal_closed_form(GravcatParams(1.0, 1.0, 1.0))
    broken = cf._replace(alpha_minus=-0.2, alpha_plus=cf.alpha_plus + cf.alpha_minus + 0.2)
    with pytest.raises(InvalidStateError):
        assemble_thermal_state(broken)


# ------------------------------------------------------ gibbs oracle

def test_gibbs_infinite_temperature():
    h = build_hamiltonian(GravcatParams(3.0, 2.0, 1.0))
    rho = gibbs_numeric(h, 1e12)
    assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-9


def test_gibbs_diagonal_hamiltonian():
    rho = gibbs_numeric(np.diag([1.0, 0.0, 0.0, -1.0]), 1.0)
    weights = np.array([math.exp(-1.0), 1.0, 1.0, math.exp(1.0)])
    assert np.allclose(rho, np.diag(weights / weights.sum()), atol=1e-14)


# every rule of the domain, as (parameter, bad value, error class)
DOMAIN_CASES = [
    *(("omega", v, InvalidParameterError) for v in (-1.0, 0.0, math.nan, math.inf)),
    *(("gamma", v, InvalidParameterError) for v in (-0.5, math.nan)),
    *(("T", v, InvalidParameterError) for v in (0.0, -0.1, 1e-7, math.nan)),
    *(("p", v, OutOfRangeError) for v in (-0.1, 1.5, math.nan)),
]
VALID_POINT = {"omega": 1.0, "gamma": 0.5, "T": 0.8, "p": 0.3}


def _sweep_with_fixed(point):
    # the two axes avoid the parameter under test, which stays a fixed value
    x, y = [name for name in ("omega", "gamma", "T") if point[name] == VALID_POINT[name]][:2]
    fixed = {name: value for name, value in point.items() if name not in (x, y)}
    return evaluate_sweep(AxisSpec(x, 0.5, 1.0, 2), AxisSpec(y, 0.5, 1.0, 3), fixed)


def _verify_with_row(point, monkeypatch):
    def draw_with_the_point(rng, n):
        rows = draw_samples(rng, n)
        rows[1] = [point[name] for name in ("omega", "gamma", "T", "p")]
        return rows

    monkeypatch.setattr(verify_module, "draw_samples", draw_with_the_point)
    return verification_report(3, 5)


# entry point -> (the parameters it takes, a call at one point)
ENTRY_POINTS = {
    "GravcatParams": ({"omega", "gamma", "T"}, lambda pt, mp: GravcatParams(
        pt["omega"], pt["gamma"], pt["T"])),
    "gibbs_numeric": ({"T"}, lambda pt, mp: gibbs_numeric(np.diag([1.0, -1.0]), pt["T"])),
    "engine_report": ({"p"}, lambda pt, mp: engine_report(
        closed_form_engine, GravcatParams(1.0, 0.5, 0.8), pt["p"])),
    "apply_qwm": ({"p"}, lambda pt, mp: apply_qwm(maximally_mixed(4), pt["p"])),
    "evaluate_sweep": ({"omega", "gamma", "T", "p"}, lambda pt, mp: _sweep_with_fixed(pt)),
    "optimize_strength_many": ({"omega", "gamma", "T"}, lambda pt, mp: optimize_strength_many(
        pt["omega"], pt["gamma"], pt["T"])),
    "verify chunk": ({"omega", "gamma", "T", "p"}, _verify_with_row),
}


@pytest.mark.parametrize(
    "entry, name, value, error",
    [
        pytest.param(entry, name, value, error, id=f"{entry}-{name}={value}")
        for entry, (takes, _) in ENTRY_POINTS.items()
        for name, value, error in DOMAIN_CASES
        if name in takes
    ],
)
def test_every_entry_point_applies_every_domain_rule(monkeypatch, entry, name, value, error):
    call = ENTRY_POINTS[entry][1]
    with pytest.raises(InvalidParameterError) as info:
        call({**VALID_POINT, name: value}, monkeypatch)
    assert type(info.value) is error
    call(VALID_POINT, monkeypatch)  # the valid point passes


def test_domain_error_locates_the_first_bad_element():
    with pytest.raises(InvalidParameterError, match="gamma must be") as info:
        optimize_strength_many(1.0, np.array([0.5, -1.0, 2.0, -3.0]), 1.0)
    assert info.value.index == (1,)
    temperature = np.full((2, 3), 0.5)
    temperature[1, 0] = temperature[1, 2] = 0.0
    with pytest.raises(InvalidParameterError, match=r"minimum 1e-06.*got 0\.0") as info:
        check_domain(omega=np.ones(3), temperature=temperature)
    assert info.value.index == (1, 0)
    with pytest.raises(OutOfRangeError) as info:
        check_domain(strength=np.array([0.0, 1.0, np.nextafter(1.0, 2.0)]))
    assert info.value.index == (2,)
    with pytest.raises(InvalidParameterError) as info:
        check_domain(omega=0.0)
    assert info.value.index == ()
    check_domain(omega=np.array([0.0, 1.0]), allow_zero_omega=True)
    check_domain(omega=math.ulp(0.0), gamma=0.0, temperature=1e-6, strength=1.0)


def test_gibbs_spectrum_is_boltzmann():
    params = GravcatParams(1.0, 1.0, 1.0)
    rho = gibbs_numeric(build_hamiltonian(params), 1.0)
    expected = boltzmann_weights(1.0, 1.0, 1.0)
    assert np.allclose(eigh(rho)[0], expected, atol=1e-12)
    assert isinstance(rho, np.ndarray) and rho.dtype == np.float64


def test_gibbs_rejects_bad_temperature():
    h = np.diag([1.0, -1.0])
    with pytest.raises(InvalidParameterError, match="temperature must be positive"):
        gibbs_numeric(h, 0.0)
    # one rule for both: the same message at the same bound
    for temperature in (0.0, 0.5e-6, math.inf):
        with pytest.raises(InvalidParameterError, match="minimum 1e-06") as from_gibbs:
            gibbs_numeric(h, temperature)
        if math.isfinite(temperature):
            with pytest.raises(InvalidParameterError) as from_params:
                GravcatParams(1.0, 1.0, temperature)
            assert str(from_params.value) == str(from_gibbs.value)
    assert gibbs_numeric(h, 1e-6).shape == (2, 2)
    assert GravcatParams(1.0, 1.0, 1e-6).temperature == 1e-6


@given(gravcat_params())
@settings(max_examples=40)
def test_thermal_spectrum_law(params):
    rho = assemble_thermal_state(thermal_closed_form(params))
    expected = boltzmann_weights(params.omega, params.gamma, params.temperature)
    assert np.abs(eigh(rho)[0] - expected).max() < 1e-10


def test_thermal_entropy_matches_boltzmann_oracle():
    params = GravcatParams(1.0, 1.0, 1.0)
    rho = assemble_thermal_state(thermal_closed_form(params))
    weights = boltzmann_weights(1.0, 1.0, 1.0)
    expected = float(-(weights * np.log2(weights)).sum())
    assert abs(float(entropy_bits(eigh(rho)[0])) - expected) < 1e-12


def test_partial_trace_of_thermal_state():
    params = GravcatParams(1.0, 1.0, 1.0)
    cf = thermal_closed_form(params)
    reduced = _partial_trace_first(assemble_thermal_state(cf))
    expected = np.diag([cf.alpha_minus + cf.beta, cf.alpha_plus + cf.beta])
    assert np.abs(reduced - expected).max() < 1e-14


# ------------------------------------------------------ deep cold

def test_deep_cold_entries_stay_finite():
    for omega, gamma in ((1.0, 1.0), (5.0, 5.0), (0.3, 2.0)):
        theta = math.hypot(omega, gamma)
        params = GravcatParams(omega, gamma, theta / 700.0)
        cf = thermal_closed_form(params)
        entries = (cf.alpha_minus, cf.alpha_plus, cf.beta, cf.kappa, cf.eta)
        assert all(math.isfinite(v) for v in entries)
        assert abs(cf.alpha_minus + cf.alpha_plus + 2.0 * cf.beta - 1.0) < 1e-10
        rho = assemble_thermal_state(cf)
        assert abs(float(np.trace(rho)) - 1.0) < 1e-10


def test_minimum_temperature_still_finite():
    cf = thermal_closed_form(GravcatParams(5.0, 5.0, 1e-6))
    assert math.isfinite(cf.alpha_minus) and math.isfinite(cf.kappa)
    assert math.isfinite(cf.z)  # Z exp(-theta/T): the raw Z = 2 cosh(...) would overflow
