"""The thermal state and the domain, whose every rule one parametrized test checks
at every entry point; the spectrum law and deep-cold hygiene are criteria 4 and 8."""

import math
import warnings
from dataclasses import astuple

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
    MIN_TEMPERATURE,
    OutOfRangeError,
    check_domain,
    coupling_from_geometry,
    draw_samples,
    eigh,
    entropy_bits,
    evaluate_sweep,
    optimize_strength_many,
    verification_report,
)
from gravcat_coding.closed_form import _thermal_terms, closed_form_engine, x_state
from gravcat_coding.coding import engine_report
from gravcat_coding.linalg import _partial_trace_first, check_density
from gravcat_coding.numeric import _gibbs, _hamiltonian
from conftest import DOMAIN_CASES, VALID_POINT, boltzmann_weights, gibbs_state, gravcat_params


# ------------------------------------------------------- Hamiltonian

def test_hamiltonian_non_interacting_limit():
    h = _hamiltonian(1.0, 0.0)
    assert np.array_equal(h, np.diag([1.0, 0.0, 0.0, -1.0]))


def test_hamiltonian_pure_coupling_limit():
    assert np.array_equal(_hamiltonian(0.0, 1.0), -np.fliplr(np.eye(4)))


def test_hamiltonian_nonzero_pattern():
    h = _hamiltonian(2.0, 0.5)
    expected = np.diag([2.0, 0.0, 0.0, -2.0]) - 0.5 * np.fliplr(np.eye(4))
    assert np.array_equal(h, expected)


def test_hamiltonian_spectrum_is_theta_and_gamma_pairs():
    energies, _ = eigh(_hamiltonian(1.0, 1.0))
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

def test_numpy_scalars_are_checked_and_kept_in_double_precision():
    # the bounds stay float64: cast to float32, the largest double overflows
    # and 1e-6 rounds down to the float32 just below it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_domain(omega=np.float32(1.0), gamma=np.float16(0.5), temperature=np.float32(2.0))
        params = GravcatParams(np.float32(1.0), np.float32(1.0), np.float32(1.0))
    with pytest.raises(InvalidParameterError, match="temperature"):
        check_domain(temperature=np.float32(MIN_TEMPERATURE))
    assert [type(value) for value in astuple(params)] == [float] * 3
    exact = engine_report(closed_form_engine, GravcatParams(1.0, 1.0, 1.0)).chi
    assert engine_report(closed_form_engine, params).chi == exact
    assert astuple(GravcatParams(1, np.int64(2), True)) == (1.0, 2.0, 1.0)


# --------------------------------------------------- closed form

def test_closed_form_matches_unshifted_formulas():
    # direct transcription with plain cosh/sinh, valid away from overflow
    theta = math.hypot(1.3, 0.7)
    z = 2.0 * (math.cosh(theta / 0.9) + math.cosh(0.7 / 0.9))
    cf = _thermal_terms(1.3, 0.7, 0.9)
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
    cf = _thermal_terms(1.0, 0.0, 1e9)
    for value in (cf.alpha_minus, cf.alpha_plus, cf.beta):
        assert abs(value - 0.25) < 1e-8
    assert abs(cf.kappa) < 1e-8 and abs(cf.eta) < 1e-8


def test_closed_form_zero_coupling_kills_offdiagonals():
    cf = _thermal_terms(2.0, 0.0, 0.3)
    assert cf.kappa == 0.0
    assert cf.eta == 0.0


@given(gravcat_params())
@settings(max_examples=80)
def test_closed_form_invariants(params):
    cf = _thermal_terms(params.omega, params.gamma, params.temperature)
    assert abs(cf.alpha_minus + cf.alpha_plus + 2.0 * cf.beta - 1.0) < 1e-12
    assert cf.alpha_minus > 0.0 and cf.alpha_plus > 0.0 and cf.beta > 0.0
    assert cf.kappa >= 0.0 and cf.eta >= 0.0


@given(gravcat_params())
@settings(max_examples=50)
def test_closed_form_state_matches_gibbs_oracle(params):
    rho_cf = check_density(x_state(_thermal_terms(params.omega, params.gamma, params.temperature)))
    rho_num = gibbs_state(params)
    assert np.abs(rho_cf - rho_num).max() < 1e-10


# --------------------------------------------------- assembled state

def test_assembled_hot_state_is_maximally_mixed():
    rho = check_density(x_state(_thermal_terms(1.0, 0.0, 1e9)))
    assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-8
    assert rho.shape == (4, 4) and rho.dtype == np.float64


def test_assembled_cold_state_is_ground_projector():
    rho = check_density(x_state(_thermal_terms(1.0, 1.0, 0.01)))
    _, vectors = eigh(_hamiltonian(1.0, 1.0))
    ground = vectors[:, -1]  # eigenvalues sorted descending
    fidelity = float(ground @ rho @ ground)
    assert fidelity > 1.0 - 1e-6


def test_assemble_rejects_non_positive_entries():
    cf = _thermal_terms(1.0, 1.0, 1.0)
    broken = cf._replace(alpha_minus=-0.2, alpha_plus=cf.alpha_plus + cf.alpha_minus + 0.2)
    with pytest.raises(InvalidStateError):
        check_density(x_state(broken))


# ------------------------------------------------------ gibbs oracle

def test_gibbs_infinite_temperature():
    rho = _gibbs(_hamiltonian(3.0, 2.0), 1e12)
    assert np.abs(rho - np.eye(4) / 4.0).max() < 1e-9


def test_gibbs_diagonal_hamiltonian():
    rho = _gibbs(np.diag([1.0, 0.0, 0.0, -1.0]), 1.0)
    weights = np.array([math.exp(-1.0), 1.0, 1.0, math.exp(1.0)])
    assert np.allclose(rho, np.diag(weights / weights.sum()), atol=1e-14)


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
    "engine_report": ({"p"}, lambda pt, mp: engine_report(
        closed_form_engine, GravcatParams(1.0, 0.5, 0.8), pt["p"])),
    "evaluate_sweep": ({"omega", "gamma", "T", "p"}, lambda pt, mp: _sweep_with_fixed(pt)),
    "optimize_strength_many": ({"omega", "gamma", "T"}, lambda pt, mp: optimize_strength_many(
        pt["omega"], pt["gamma"], pt["T"])),
    "verify chunk": ({"omega", "gamma", "T", "p"}, _verify_with_row),
    "sweep axes": (set(), lambda axes, mp: evaluate_sweep(*axes)),
}
# parameter -> its rule's error class and message; a gamma of None is no number
DOMAIN_RULES = {
    "omega": (InvalidParameterError, "omega must be finite and nonnegative"),
    "gamma": (InvalidParameterError, "gamma must be finite and nonnegative"),
    "T": (InvalidParameterError, "temperature must be positive"),
    "p": (OutOfRangeError, r"strength must lie in \[0, 1\], got"),
    None: (TypeError, None),
}
T_AXIS = AxisSpec("T", 0.1, 1.0, 3)
# (entry, an input that breaks the rule of one parameter, the parameter)
INPUT_CASES = [
    *(("GravcatParams", dict(zip(("omega", "gamma", "T"), point)), name) for point, name in [
        ((1.0, 0.0, 0.0), "T"), ((1.0, 0.0, 1e-7), "T"), ((-math.ulp(0.0), 1.0, 1.0), "omega"),
        ((-1.0, 1.0, 1.0), "omega"), ((1.0, -0.5, 1.0), "gamma"), ((math.nan, 0.0, 1.0), "omega"),
        ((1.0, None, 1.0), None),
    ]),
    *(("sweep axes", axes, name) for axes, name in [
        ((AxisSpec("T", 0.0, 2.0, 3), AxisSpec("omega", 0.1, 1.0, 3), {"gamma": 1.0}), "T"),
        ((AxisSpec("omega", -1.0, 2.0, 3), T_AXIS, {"gamma": 1.0}), "omega"),
        ((AxisSpec("p", 0.0, 1.2, 3), T_AXIS, {"omega": 1.0, "gamma": 1.0}), "p"),
        ((AxisSpec("p", -0.5, 0.5, 3), T_AXIS, {"omega": 1.0, "gamma": 1.0}), "p"),
        ((AxisSpec("omega", 0.5, 1.0, 3), T_AXIS, {"gamma": 1.0, "p": math.nan}), "p"),
    ]),
]
# entry -> the valid input it then takes, and a check of what it gives there:
# omega = 0, the pure-coupling limit, is in the domain on a point and on an axis
ZERO_OMEGA = {
    "GravcatParams": (
        {"omega": 0.0, "gamma": 1.0, "T": 1.0}, lambda params: astuple(params) == (0.0, 1.0, 1.0)
    ),
    "sweep axes": (
        (AxisSpec("omega", 0.0, 1.0, 2), AxisSpec("T", 0.5, 1.0, 2), {"gamma": 1.0}),
        lambda grid: grid.values.shape == (2, 2),
    ),
}


def _input_id(entry, bad):
    if entry == "GravcatParams":
        return f"GravcatParams({bad['omega']}, {bad['gamma']}, {bad['T']})"
    x, _, fixed = bad
    fixed_text = ",".join(f"{k}={v}" for k, v in fixed.items())
    return f"sweep axes-x={x.name}:{x.start}:{x.stop},{fixed_text}"


@pytest.mark.parametrize(
    "entry, bad, name, error, good, accepted",
    [
        pytest.param(entry, {**VALID_POINT, name: value}, name, error, VALID_POINT, None,
                     id=f"{entry}-{name}={value}")
        for entry, (takes, _) in ENTRY_POINTS.items()
        for name, value, error in DOMAIN_CASES
        if name in takes
    ] + [
        pytest.param(entry, bad, name, DOMAIN_RULES[name][0], *ZERO_OMEGA[entry],
                     id=_input_id(entry, bad))
        for entry, bad, name in INPUT_CASES
    ],
)
def test_every_entry_point_applies_every_domain_rule(
    monkeypatch, entry, bad, name, error, good, accepted
):
    # the rule's own error class and message; a valid point or grid then passes
    call = ENTRY_POINTS[entry][1]
    with pytest.raises(error, match=DOMAIN_RULES[name][1]) as info:
        call(bad, monkeypatch)
    assert type(info.value) is error
    result = call(good, monkeypatch)
    assert accepted is None or accepted(result)


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
    with pytest.raises(InvalidParameterError, match="omega must be finite and nonnegative") as info:
        check_domain(omega=-1.0)
    assert info.value.index == ()
    with pytest.raises(InvalidParameterError) as info:
        check_domain(omega=np.array([0.0, 1.0, -math.ulp(0.0)]))
    assert info.value.index == (2,)
    check_domain(omega=np.array([0.0, -0.0, 1.0]))  # IEEE -0.0 >= 0
    check_domain(omega=math.ulp(0.0), gamma=0.0, temperature=1e-6, strength=1.0)


def test_gibbs_spectrum_is_boltzmann():
    rho = gibbs_state(GravcatParams(1.0, 1.0, 1.0))
    expected = boltzmann_weights(1.0, 1.0, 1.0)
    assert np.allclose(eigh(rho)[0], expected, atol=1e-12)
    assert isinstance(rho, np.ndarray) and rho.dtype == np.float64


def test_gibbs_rejects_bad_temperature():
    h = np.diag([1.0, -1.0])
    with pytest.raises(InvalidParameterError, match="temperature must be positive"):
        check_domain(temperature=0.0)
    # one rule for both: the same message at the same bound
    for temperature in (0.0, 0.5e-6, math.inf):
        with pytest.raises(InvalidParameterError, match="minimum 1e-06") as from_domain:
            check_domain(temperature=temperature)
        if math.isfinite(temperature):
            with pytest.raises(InvalidParameterError) as from_params:
                GravcatParams(1.0, 1.0, temperature)
            assert str(from_params.value) == str(from_domain.value)
    check_domain(temperature=1e-6)
    assert _gibbs(h, 1e-6).shape == (2, 2)
    assert GravcatParams(1.0, 1.0, 1e-6).temperature == 1e-6


def test_thermal_entropy_matches_boltzmann_oracle():
    rho = check_density(x_state(_thermal_terms(1.0, 1.0, 1.0)))
    weights = boltzmann_weights(1.0, 1.0, 1.0)
    expected = float(-(weights * np.log2(weights)).sum())
    assert abs(float(entropy_bits(eigh(rho)[0])) - expected) < 1e-12


def test_partial_trace_of_thermal_state():
    cf = _thermal_terms(1.0, 1.0, 1.0)
    reduced = _partial_trace_first(check_density(x_state(cf)))
    expected = np.diag([cf.alpha_minus + cf.beta, cf.alpha_plus + cf.beta])
    assert np.abs(reduced - expected).max() < 1e-14


# ------------------------------------------------------ deep cold

def test_minimum_temperature_still_finite():
    cf = _thermal_terms(5.0, 5.0, 1e-6)
    assert math.isfinite(cf.alpha_minus) and math.isfinite(cf.kappa)
    assert math.isfinite(cf.z)  # Z exp(-theta/T): the raw Z = 2 cosh(...) would overflow
