"""The weak measurement and the strength optimizer; p = 1 is pinned in
`test_closed_form.py`, and the engines' agreement under a measurement in `test_coding.py`."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings

import gravcat_coding.weak_measurement as wm_module
from gravcat_coding import (
    GravcatParams,
    ZeroSuccessProbabilityError,
    chi_closed_form,
    optimize_strength,
    optimize_strength_many,
)
from gravcat_coding.closed_form import (
    ThermalTerms, _post_selected_terms, _thermal_terms, closed_form_engine, x_state,
)
from gravcat_coding.coding import engine_report
from gravcat_coding.linalg import check_density
from gravcat_coding.numeric import _post_select
from conftest import (
    assert_same_bits, basis_projector, finite_floats, gravcat_params, log_uniform_box,
    summed_entropies,
)


# ------------------------------------------------------- the operator

def kraus_conjugation(q):
    """(Q(x)Q) J (Q(x)Q)^dagger for the all-ones J, with Q = diag(1, sqrt(q)): the
    factor `_post_select` applies to each entry before it renormalizes."""
    state, success = _post_select(np.ones((4, 4)) / 4.0, q)
    return 4.0 * success * state


def test_operator_endpoints():
    # p = 0 (q = 1) is the identity, p = 1 (q = 0) the projector onto |0>(x)|0>
    assert np.array_equal(kraus_conjugation(1.0), np.ones((4, 4)))
    assert np.array_equal(kraus_conjugation(0.0), basis_projector(0))


def test_operator_intermediate_strength():
    # p = 0.75 gives Q = diag(1, 0.5), so Q(x)Q = diag(1, 0.5, 0.5, 0.25)
    k = np.array([1.0, 0.5, 0.5, 0.25])
    assert np.allclose(kraus_conjugation(0.25), np.outer(k, k), atol=1e-15)


# --------------------------------------------------- state conjugation

def test_zero_strength_is_identity():
    rho = check_density(x_state(_thermal_terms(1.0, 1.0, 1.0)))
    state, success = _post_select(rho, 1.0)
    assert np.abs(state - rho).max() < 1e-14 and state.dtype == np.float64
    assert abs(success - 1.0) < 1e-12


def test_full_strength_projects_onto_ground_corner():
    cf = _thermal_terms(1.0, 1.0, 1.0)
    state, success = _post_select(check_density(x_state(cf)), 0.0)
    assert np.abs(state - basis_projector(0)).max() < 1e-12
    assert abs(success - cf.alpha_minus) < 1e-14


def test_full_strength_on_orthogonal_state_fails():
    with pytest.raises(ZeroSuccessProbabilityError):
        _post_select(basis_projector(3), 0.0)


def test_half_strength_entry_pattern():
    # conjugation scales the corners by (1-p) and (1-p)^2 and the middle
    # block by (1-p); checked against the Kraus route at p = 0.5
    cf = _thermal_terms(1.0, 1.0, 1.0)
    state, success = _post_select(check_density(x_state(cf)), 0.5)
    expected_ps = cf.alpha_minus + 2.0 * cf.beta * 0.5 + cf.alpha_plus * 0.25
    expected = np.array(
        [
            [cf.alpha_minus, 0.0, 0.0, 0.5 * cf.kappa],
            [0.0, 0.5 * cf.beta, 0.5 * cf.eta, 0.0],
            [0.0, 0.5 * cf.eta, 0.5 * cf.beta, 0.0],
            [0.5 * cf.kappa, 0.0, 0.0, 0.25 * cf.alpha_plus],
        ]
    ) / expected_ps
    assert np.abs(state - expected).max() < 1e-12
    assert abs(success - expected_ps) < 1e-12


@given(gravcat_params(), finite_floats(0.0, 0.99))
@settings(max_examples=80)
def test_closed_form_state_matches_kraus_route(params, strength):
    cf = _thermal_terms(params.omega, params.gamma, params.temperature)
    q = 1.0 - strength
    closed_success = _post_selected_terms(cf, q).success
    kraus_state, kraus_success = _post_select(check_density(x_state(cf)), q)
    assert np.abs(x_state(cf, q) / closed_success - kraus_state).max() < 1e-12
    assert abs(closed_success - kraus_success) < 1e-12


@given(gravcat_params())
@settings(max_examples=40)
def test_success_probability_is_nonincreasing(params):
    cf = _thermal_terms(params.omega, params.gamma, params.temperature)
    probs = _post_selected_terms(cf, 1.0 - np.linspace(0.0, 1.0, 21)).success.tolist()
    assert all(0.0 < p <= 1.0 + 1e-12 for p in probs)
    assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


# -------------------------------------------------- capacity closed form

def test_zero_strength_reduces_to_plain_capacity():
    for omega, gamma, temperature in ((1.0, 1.0, 1.0), (2.0, 0.3, 0.2), (0.5, 3.0, 5.0)):
        params = GravcatParams(omega, gamma, temperature)
        with_wm = engine_report(closed_form_engine, params, 0.0)
        plain = engine_report(closed_form_engine, params)
        assert abs(with_wm.chi - plain.chi) < 1e-12


def test_capacity_near_projective_limit_is_one_bit():
    strength = 1.0 - 1e-12
    assert abs(chi_closed_form(1.0, 1.0, 1.0, 1.0 - strength) - 1.0) < 1e-9


@given(gravcat_params(), finite_floats(0.0, 0.99))
@settings(max_examples=60)
def test_average_state_halves_sum_to_one(params, strength):
    cf = _thermal_terms(params.omega, params.gamma, params.temperature)
    q = 1.0 - strength
    success = cf.alpha_minus + 2.0 * cf.beta * q + cf.alpha_plus * q * q
    nu = (cf.alpha_minus + cf.beta * q) / success
    mu = (cf.alpha_plus * q * q + cf.beta * q) / success
    assert abs(nu + mu - 1.0) < 1e-12


@given(gravcat_params())
@settings(max_examples=30)
def test_boundary_continuity_towards_full_collapse(params):
    # the approach to chi = 1 is resolved at p = 1 - 1e-9 once the coupling
    # is not negligible against the splitting; in the near-product cold
    # corner (gamma << omega, omega/T ~ 21) the crossover q ~ exp(-omega/T)
    # sits below 1e-9 and the limit needs a deeper p (see the test below)
    assume(params.gamma >= params.omega / 3.0)
    strength = 1.0 - 1e-9
    chi = chi_closed_form(params.omega, params.gamma, params.temperature, 1.0 - strength)
    assert abs(chi - 1.0) < 1e-5


def test_boundary_limit_in_the_slow_corner():
    # gamma = 0 with omega/T = 20.7 puts the post-selection crossover right
    # at q ~ 1e-9: chi(1 - 1e-9) is nowhere near 1, yet the p -> 1 limit is
    # still 1, approached once q falls below the thermal weight ratio
    shallow, deeper, deepest = (
        chi_closed_form(2.07, 0.0, 0.1, 1.0 - strength)
        for strength in (1.0 - 1e-9, 1.0 - 1e-12, 1.0 - 1e-15)
    )
    assert shallow < 0.01
    assert shallow < deeper < deepest < 1.0
    assert abs(deepest - 1.0) < 1e-3


# ------------------------------------------------------- optimization

def seeded_points(shape, seed, cold=0):
    """omega, gamma in (0, 3], T log-uniform on [0.01, 10]; the first ``cold`` have T = 0.01."""
    rng = np.random.default_rng(seed)
    omega = 3.0 * (1.0 - rng.random(shape))
    gamma = 3.0 * rng.random(shape)
    temperature = 10.0 ** (-2.0 + 3.0 * rng.random(shape))
    temperature.reshape(-1)[:cold] = 0.01
    return omega, gamma, temperature


def three_boxes(n, seed):
    """n seeded points each of the default box, of it at T = 0.01 and of the wide box
    (the golden table's omega, gamma and T)."""
    wide = log_uniform_box(n, seed + 2)[:3]
    return [seeded_points(n, seed), seeded_points(n, seed + 1, cold=n), wide]


# a chi(p) peak about 1e-9 wide at low T, far narrower than a 1e-3 scan step
NARROW_PEAK = (2.43629677990019, 0.00691859790353444, 0.01)


def test_batched_optimizer_equals_per_point_bit_for_bit():
    # a single point picks its candidate by direct indexing and a batch by
    # take_along_axis: both agree on 64 points of each box
    for box in three_boxes(64, 2012):
        omega, gamma, temperature = (x.reshape(8, 8) for x in box)
        p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
        assert p_star.shape == chi_star.shape == (8, 8)
        for index in np.ndindex(8, 8):
            params = GravcatParams(omega[index], gamma[index], temperature[index])
            assert optimize_strength(params) == (p_star[index], chi_star[index]), index
        order = np.random.default_rng(3).permutation(64)
        for args, want in (
            ((omega.ravel()[order], gamma.ravel()[order], temperature.ravel()[order]),
             (p_star.ravel()[order], chi_star.ravel()[order])),
            ((omega.reshape(2, 32), gamma.reshape(2, 32), temperature.reshape(2, 32)),
             (p_star.reshape(2, 32), chi_star.reshape(2, 32))),
            ((omega.T, gamma.T, temperature.T), (p_star.T, chi_star.T)),
        ):
            got = optimize_strength_many(*args)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_thermal_terms_lacking_the_omega_axes_broadcast():
    # exp(-2 gamma/T) does not depend on omega, so on a grid it lacks the omega axis
    omega, gamma = np.linspace(0.1, 3.0, 5)[:, np.newaxis], np.linspace(0.0, 3.0, 4)
    p_star, chi_star = optimize_strength_many(omega, gamma, 0.5)
    assert p_star.shape == chi_star.shape == (5, 4)
    for i, j in np.ndindex(5, 4):
        params = GravcatParams(float(omega[i, 0]), float(gamma[j]), 0.5)
        assert optimize_strength(params) == (p_star[i, j], chi_star[i, j])


def summed_optimize_rows(thermal):
    """The scan-and-refine strength search the three candidates replaced, kept
    verbatim as their floor, scoring chi with the summed entropies; the module
    constants it read are frozen as literals."""
    STRENGTH_GRID_POINTS, STRENGTH_MAX = 1001, 1.0 - 1e-9
    REFINE_POINTS, REFINE_LEVELS = 101, 4

    def _chi_from_terms(terms):
        entropy_state, entropy_average = summed_entropies(terms)
        return entropy_average - entropy_state

    rows = np.arange(thermal.z.shape[0])
    chi = lambda p: _chi_from_terms(_post_selected_terms(thermal, 1.0 - p))

    step = STRENGTH_MAX / (STRENGTH_GRID_POINTS - 1)
    grid = np.arange(STRENGTH_GRID_POINTS) * step  # bit-identical to i * step
    scan = chi(grid)
    best = scan.argmax(axis=-1)  # the first maximum
    chi_scan, p_scan = scan[rows, best], grid[best]
    lo = grid[np.maximum(best - 1, 0), np.newaxis]
    hi = grid[np.minimum(best + 1, STRENGTH_GRID_POINTS - 1), np.newaxis]
    fractions = np.arange(REFINE_POINTS) / (REFINE_POINTS - 1)
    for _ in range(REFINE_LEVELS):
        points = lo + (hi - lo) * fractions
        values = chi(points)
        best = values.argmax(axis=-1)
        chi_refined, p_refined = values[rows, best], points[rows, best]
        lo = points[rows, np.maximum(best - 1, 0), np.newaxis]
        hi = points[rows, np.minimum(best + 1, REFINE_POINTS - 1), np.newaxis]

    chi_star, p_star = scan[:, 0], np.zeros(rows.shape)
    for chi_c, p_c in ((chi_scan, p_scan), (chi_refined, p_refined)):
        better = (chi_c > chi_star) | ((chi_c == chi_star) & (p_c < p_star))  # ties -> smaller p
        chi_star, p_star = np.where(better, chi_c, chi_star), np.where(better, p_c, p_star)
    return p_star, chi_star


def summed_search(omega, gamma, temperature):
    """(p_star, chi_star) of the scan-and-refine optimizer over 1-d arrays of points,
    driven as it was: thermal terms once per point, rows scanned 256 at a time."""
    terms = _thermal_terms(omega, gamma, temperature)
    rows = np.stack([np.broadcast_to(term, omega.shape) for term in terms])[..., np.newaxis]
    p_star, chi_star = np.empty((2, omega.size))
    for start in range(0, omega.size, 256):
        block = slice(start, start + 256)
        p_star[block], chi_star[block] = summed_optimize_rows(ThermalTerms(*rows[:, block]))
    return p_star, chi_star


def test_optimizer_never_falls_below_the_summed_search():
    # 20,000 seeded points of each box plus the 1e-9-wide peak: the three
    # candidates reach at least the scan-and-refine chi_star, to 1e-15
    for box in three_boxes(20_000, 21):
        omega, gamma, temperature = (np.append(x, peak) for x, peak in zip(box, NARROW_PEAK))
        _, chi_star = optimize_strength_many(omega, gamma, temperature)
        _, floor = summed_search(omega, gamma, temperature)
        assert np.all(chi_star >= floor - 1e-15)


def test_optimizer_reaches_the_dense_log_q_maximum():
    # an oracle independent of the candidates: 20,001 strengths log-uniform
    # in q = 1 - p over [Q_MIN, 1], on 300 seeded points of each box
    q = 2.0 ** np.linspace(-53.0, 0.0, 20_001)
    assert q[0] == wm_module.Q_MIN and q[-1] == 1.0
    for omega, gamma, temperature in three_boxes(300, 31):
        _, chi_star = optimize_strength_many(omega, gamma, temperature)
        for i in range(omega.size):
            best = chi_closed_form(omega[i], gamma[i], temperature[i], q).max()
            assert chi_star[i] >= best - 1e-15, i


def test_optimizer_reaches_the_peaks_the_scan_missed():
    # a peak at q ~ 1.6e-6, narrower than the scan's step, where the scan gave
    # p = 0 and chi 0.99999992; and a peak at q_eq = 6.67e-10, below the scan's
    # floor of 1e-9, where it gave 1.891
    omega = np.array([589.1944623047525, 945.5923560605206])
    gamma = np.array([0.001866604525764097, 1.2620091565284667e-06])
    temperature = np.array([29.749164530732823, 8.835663407464747])
    p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
    assert chi_star[0] >= 1.98144363 and abs(p_star[0] - 0.999998415967072) < 1e-12
    assert chi_star[1] >= 1.9999 and 1.0 - 1e-9 < p_star[1] < 1.0


def test_chi_star_is_chi_at_p_star_bit_for_bit():
    # each candidate p is formed first and chi is read at 1 - p, so the pair
    # printed by `optimize` is self-consistent
    for omega, gamma, temperature in three_boxes(2_000, 41):
        p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
        assert_same_bits(chi_closed_form(omega, gamma, temperature, 1.0 - p_star), chi_star)
        for i in range(0, omega.size, 100):
            chi_point = chi_closed_form(omega[i], gamma[i], temperature[i], 1.0 - p_star[i])
            assert_same_bits(chi_point, chi_star[i])


def _peak_bytes(points: int) -> int:
    omega, gamma, temperature = seeded_points(points, 77)
    tracemalloc.start()
    try:
        optimize_strength_many(omega, gamma, temperature)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_optimizer_memory_is_linear_in_the_batch():
    # three candidates per point need no blocks: about 400 bytes per point
    # (16.0 MB traced at 40,000 points), plus a few kB whatever the batch
    for points in (1, 256, 20_000):
        assert _peak_bytes(points) <= 512 * points + 65_536, points


def synthetic_profile(monkeypatch, chi_of_q):
    """Make the optimizer score chi_of_q(q) in place of the closed form."""
    monkeypatch.setattr(wm_module, "_post_selected_terms", lambda thermal, q: thermal.z * 0 + q)
    monkeypatch.setattr(wm_module, "_chi_from_terms", chi_of_q)


def test_candidate_tie_goes_to_the_smaller_strength(monkeypatch):
    # min(p, 0.3) is 0.3 at the corner-balance strength (p = 0.522 at
    # omega = gamma = T = 1) and at STRENGTH_MAX: the smaller p wins the tie
    synthetic_profile(monkeypatch, lambda q: np.minimum(1.0 - q, 0.3))
    p_star, chi_star = optimize_strength_many(1.0, 1.0, 1.0)
    assert chi_star == 0.3
    assert 0.52 < p_star < 0.53


def test_batched_optimizer_bounds():
    omega, gamma, temperature = seeded_points(200, 11, cold=40)
    p_star, chi_star = optimize_strength_many(omega, gamma, temperature)
    assert np.all((0.0 <= p_star) & (p_star < 1.0))
    assert np.all(chi_star >= chi_closed_form(omega, gamma, temperature))


def test_optimizer_reaches_the_dense_grid_maximum():
    # T = 0.01 puts the optimum on narrow plateaus; the three candidates
    # must find what a 100,001-point grid uniform in p finds
    omega, gamma, temperature = seeded_points(24, 5, cold=12)
    _, chi_star = optimize_strength_many(omega, gamma, temperature)
    dense = np.linspace(0.0, 1.0 - 1e-9, 100_001)
    for i in range(24):
        best = chi_closed_form(omega[i], gamma[i], temperature[i], 1.0 - dense).max()
        assert chi_star[i] >= best - 1e-15, i


def test_optimizer_breaks_ties_towards_the_smaller_strength():
    # gamma = 0 at omega/T = 1000 leaves the product ground state |11> to
    # double precision: every strength keeps it, so chi is exactly 1 throughout
    params = GravcatParams(omega=1.0, gamma=0.0, temperature=1e-3)
    q = np.append(1.0 - np.linspace(0.0, 1.0 - 1e-9, 1001), wm_module.Q_MIN)
    assert np.all(chi_closed_form(1.0, 0.0, 1e-3, q) == 1.0)
    assert optimize_strength(params) == (0.0, 1.0)


def test_optimizer_keeps_zero_when_measurement_cannot_help():
    # a product state: chi(p) is strictly decreasing, so p* = 0 exactly
    p_star, chi_star = optimize_strength_many(2.0, 0.0, 0.1)
    assert p_star == 0.0
    assert chi_star == chi_closed_form(2.0, 0.0, 0.1)


def test_optimizer_beats_no_measurement_at_reference_point():
    # chi climbs towards its p = 1 limit of 1 bit here, so the best
    # candidate is the largest strength below 1
    p_star, chi_star = optimize_strength_many(1.0, 1.0, 1.0)
    assert chi_star > chi_closed_form(1.0, 1.0, 1.0)
    assert p_star == wm_module.STRENGTH_MAX == 1.0 - 2.0**-53


def test_optimizer_finds_interior_peak():
    # stronger couplings put the best strength strictly inside (0, 1)
    params = GravcatParams(3.0, 3.0, 1.0)
    p_star, chi_star = optimize_strength(params)
    assert 0.1 < p_star < 0.95
    assert chi_star > 1.0


@given(gravcat_params())
@settings(max_examples=15)
def test_optimizer_never_loses_to_zero_strength(params):
    _, chi_star = optimize_strength(params)
    assert chi_star >= chi_closed_form(params.omega, params.gamma, params.temperature) - 1e-12


def test_wider_optimal_plateau_at_stronger_couplings():
    # at moderate temperatures the near-optimal strength window at
    # omega = gamma = 3 is wider than at omega = gamma = 1; towards T -> 0
    # both collapse onto the same one-parameter family (equal widths) and by
    # T ~ 2 both maxima sit at the p -> 1 boundary, so the comparison is
    # meaningful only in between
    q = 1.0 - np.linspace(0.0, 1.0 - 1e-9, 4001)
    for temperature in (0.5, 1.0):
        widths = {}
        for scale in (1.0, 3.0):
            chis = chi_closed_form(scale, scale, temperature, q)
            widths[scale] = float((chis >= chis.max() - 1e-3).mean())
        assert widths[3.0] > widths[1.0]
