"""The closed-form engine: a committed high-precision table, regressions, and
properties that need no oracle.  The endpoint p = 1 of both engines, with the
one kept-branch rule, is `test_projective_endpoint_is_exactly_one_bit`.

``tests/data/golden_chi.json`` is written by ``scripts/make_golden_chi.py``
(mpmath, 60 and 100 digits, no closed-form spectrum); this suite only reads it.
"""

import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from gravcat_coding import (
    GravcatParams,
    OutOfRangeError,
    ZeroSuccessProbabilityError,
    chi_closed_form,
    chi_numeric,
    optimize_strength,
    optimize_strength_many,
)
from gravcat_coding.closed_form import (
    ClosedFormTerms, _post_selected_terms, _thermal_terms, closed_form_engine,
    closed_form_entropies,
)
from gravcat_coding.coding import ENGINES, engine_report
from gravcat_coding.numeric import numeric_engine
from conftest import CHI, assert_same_bits, log_uniform_box, summed_entropies

GOLDEN = Path(__file__).parent / "data" / "golden_chi.json"
GOLDEN_TOL = 1e-12
NUMERIC_GOLDEN_TOL = 1e-10  # the matrix route measures 4.8e-13 bits at worst


@pytest.fixture(scope="module")
def golden():
    table = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert table["columns"] == ["omega", "gamma", "T", "p", "chi"]
    points = np.array([row[:4] for row in table["points"]])
    chi = np.array([float(row[4]) for row in table["points"]])
    return points, chi


# ------------------------------------------------------- golden table

def test_golden_table_covers_the_domain(golden):
    points, _ = golden
    omega, gamma, temperature, strength = points.T
    assert len(points) >= 400
    assert omega.min() < 1e-2 and omega.max() > 1e2
    assert 0.05 < (gamma == 0.0).mean() < 0.2
    assert temperature.min() < 1e-5 and temperature.max() > 1e2
    assert (strength == 0.0).any() and (1.0 - strength).min() < 1e-8


def test_golden_table_array_engine(golden):
    points, want = golden
    omega, gamma, temperature, strength = points.T
    got = chi_closed_form(omega, gamma, temperature, 1.0 - strength)
    assert np.abs(got - want).max() <= GOLDEN_TOL


def test_golden_table_numeric_engine(golden):
    points, want = golden
    omega, gamma, temperature, strength = points.T
    got = chi_numeric(omega, gamma, temperature, 1.0 - strength)
    assert np.abs(got - want).max() <= NUMERIC_GOLDEN_TOL


def test_golden_table_scalar_reports(golden):
    points, want = golden
    for (omega, gamma, temperature, strength), chi in zip(points.tolist(), want.tolist()):
        params = GravcatParams(omega, gamma, temperature)
        assert abs(engine_report(closed_form_engine, params, strength).chi - chi) <= GOLDEN_TOL
        if strength == 0.0:
            assert abs(engine_report(closed_form_engine, params).chi - chi) <= GOLDEN_TOL


# ------------------------------------------------------- regressions
# chi values are mpmath evaluations at these exact float inputs; the old
# closed form raised InvalidStateError on the first point and was 0.544 bits,
# 5.0e-5 bits and 2.6e-10 bits off on the next three

@pytest.mark.parametrize(
    "omega, gamma, temperature, strength, want",
    [
        (299.08, 1.09e-6, 0.935, 0.99999965, 1.0004503357552348298),
        (644.1, 1.05e-5, 2.70e-5, 1.0 - 7.2e-9, 1.9889847365328211880),
        (621.09, 1.4e-4, 3.0e-4, 0.9999985, 1.0500497761674184563),
    ],
)
def test_measured_capacity_without_cancellation(omega, gamma, temperature, strength, want):
    chi = chi_closed_form(omega, gamma, temperature, 1.0 - strength)
    assert abs(chi - want) < 1e-13


def test_plain_capacity_exponent_without_cancellation():
    # gamma >> omega at low T: theta/T and gamma/T are each ~3e7 and differ by ~4
    assert abs(chi_closed_form(0.0873, 172.5, 5.6e-6) - 1.8642785666605935973) < 1e-13


# in-domain points outside the golden box, where the smallest energy gap
# omega^2 / (theta + gamma) falls below what eigh resolves (about eps theta):
# chi_numeric is 1.0, 0.058 and 4.5e-6 bits off here, so only mpmath
# (`make_golden_chi.golden_chi`, 60 and 100 digits agreeing to 1e-45) pins them
@pytest.mark.parametrize(
    "omega, gamma, temperature, want",
    [
        (1e4, 1e12, 1e-6, 1.999999999999999927851057),
        (1e3, 1e11, 1e-6, 1.942033085847533721915707),
        (1.0, 1e8, 1e-6, 1.000004508407913980263684),
    ],
)
def test_closed_form_where_the_numeric_engine_is_no_oracle(omega, gamma, temperature, want):
    assert abs(chi_closed_form(omega, gamma, temperature) - want) <= GOLDEN_TOL


def test_optimizer_agrees_with_numeric_route_at_a_cold_point():
    params = GravcatParams(2.9423374852881232, 9.993036120958809e-05, 0.011439857518148635)
    p_star, chi_star = optimize_strength(params)
    point = (params.omega, params.gamma, params.temperature)
    assert abs(chi_star - chi_numeric(*point, 1.0 - p_star)) < 1e-9
    assert chi_star >= chi_closed_form(*point)


# ------------------------------------------- properties with no oracle

# (omega, gamma, T, p) with theta = hypot(omega, gamma) at or above 2^1021, where
# theta + omega overflowed until the closed form learned to rescale such points
HUGE_POINTS = [
    (1e308, 1e308, 1.0, 0.0),
    (1e308, 1e307, 1e308, 0.0),
    (1e308, 1e307, 1e308, 0.5),
    (1.7976931348623157e308, 1.7976931348623157e308, 1e308, 0.3),
    (8e307, 0.0, 1e307, 0.7),
    (3e307, 3e307, 5e306, 0.9),
    (2.3e307, 1.5e308, 1e300, 0.2),
    (1e308, 1e308, 1e-6, 0.999),
]


def test_power_of_two_scaling_is_bit_exact(golden):
    # chi depends only on omega/T, gamma/T and p, and scaling all three
    # energies by 2^k is exact in floating point; the huge points are
    # scaled down, where nothing can overflow; an exponent that passes the
    # double range is an exact 0 weight and must not warn
    points, _ = golden
    for table, exponents in ((points, range(-3, 6)), (np.array(HUGE_POINTS), range(-64, 0))):
        omega, gamma, temperature, strength = table.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            base = chi_closed_form(omega, gamma, temperature, 1.0 - strength)
            for k in exponents:
                f = 2.0**k
                scaled = chi_closed_form(omega * f, gamma * f, temperature * f, 1.0 - strength)
                assert np.array_equal(scaled, base), k


def test_numeric_engine_at_huge_points_matches_the_scaled_points():
    # from an entry of H at 2^1021 on the energy gaps can overflow, so the
    # matrix route rescales H and T together; chi depends only on H/T
    omega, gamma, temperature, strength = np.array(HUGE_POINTS).T
    f = 2.0**-60
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        huge = chi_numeric(omega, gamma, temperature, 1.0 - strength)
        scaled = chi_numeric(omega * f, gamma * f, temperature * f, 1.0 - strength)
        single = chi_numeric(1e308, 1e307, 1e308)
    assert np.abs(huge - scaled).max() <= 1e-12
    assert abs(single - 0.16530151997838383) <= 1e-12


def test_plain_capacity_equals_zero_strength_bit_for_bit(golden):
    points, _ = golden
    for omega, gamma, temperature, _ in points[::10].tolist():
        params = GravcatParams(omega, gamma, temperature)
        plain = engine_report(closed_form_engine, params)
        assert plain.chi == engine_report(closed_form_engine, params, 0.0).chi


def test_report_decomposes_exactly(golden):
    points, _ = golden
    for omega, gamma, temperature, strength in points[::25].tolist():
        params = GravcatParams(omega, gamma, temperature)
        report = engine_report(closed_form_engine, params, strength)
        assert report.chi == report.entropy_average - report.entropy_state
        assert list(report.state_spectrum) == sorted(report.state_spectrum, reverse=True)
        assert abs(sum(report.state_spectrum) - 1.0) < 1e-12


@pytest.mark.parametrize("omega, gamma", [(0.0, 0.0), (0.0, 0.8)])
def test_degenerate_splitting_matches_numeric_engine(omega, gamma):
    for strength in (0.0, 0.5, 0.9, 1.0):
        point = (omega, gamma, 0.7, 1.0 - strength)
        assert abs(chi_closed_form(*point) - chi_numeric(*point)) < 1e-12, strength
    # H = 0 leaves I/4: no capacity before the measurement, a product state after
    assert chi_closed_form(0.0, 0.0, 1.0) == 0.0
    assert abs(chi_closed_form(0.0, 0.0, 1.0, 1.0 - 0.5) - 0.081704165945510485) < 1e-15


def test_subnormal_energies_match_the_numeric_engine():
    # below theta = 2^-1021, theta and the ratios omega/theta, gamma/theta kept
    # only a few bits until the closed form rescaled such points: at
    # omega = gamma = 5e-324, T = 1e-6, where the state is I/4, it gave 0.079 bits
    rng = np.random.default_rng(1)
    omega, gamma = 10.0 ** rng.uniform(-324.0, -290.0, (2, 20_000))
    temperature = 10.0 ** rng.uniform(-6.0, 3.0, 20_000)
    q = np.where(rng.random(20_000) < 0.5, 1.0, 10.0 ** rng.uniform(-9.0, 0.0, 20_000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = chi_closed_form(omega, gamma, temperature, q)
        numeric = chi_numeric(omega, gamma, temperature, q)
    assert np.abs(closed - numeric).max() <= 1e-12
    assert chi_closed_form(5e-324, 5e-324, 1e-6) == 0.0


def test_nan_input_propagates():
    assert math.isnan(chi_closed_form(1.0, 1.0, math.nan, 1.0))
    assert math.isnan(chi_closed_form(math.nan, 0.0, 1.0, 0.5))


def test_outside_the_domain_the_kernel_is_finite_not_nan():
    # q < 0 makes two eigenvalues negative; each term v log2 v takes the
    # least subnormal inside the log, so chi is finite (no NaN, no warning)
    # and far outside [0, 2]; every checked entry point refuses q < 0 first
    spectrum, _, _, _ = closed_form_engine(1.0, 1.0, 1.0, -0.5)
    assert sum(float(v) < 0.0 for v in spectrum) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi = chi_closed_form(1.0, 1.0, 1.0, -0.5)
    assert chi == pytest.approx(10836.939652553752, rel=1e-12)
    with pytest.raises(OutOfRangeError):
        engine_report(closed_form_engine, GravcatParams(1.0, 1.0, 1.0), 1.5)


# points at p = 1 (q = 0) as (omega, gamma, T), and the strengths q > 0 at
# which their vanishing kept weight is refused, with the index of the first;
# at gamma = 0 and omega/T = 1000 the kept |00> weight underflows to 0
PROJECTIVE_POINTS = {
    "ordinary": (np.array([[0.1, 1.0, 3.0, 700.0], [0.0, 1.0, 0.2, 1e-6],
                           [0.5, 1.0, 0.01, 30.0]]), []),
    "reports": (np.array([[1.0, 2.0, 0.5], [1.0, 0.0, 3.0], [1.0, 0.3, 5.0]]), []),
    "underflowed": ((1.0, 0.0, 1e-3), []),
    "mixed": ((1.0, 0.0, np.array([[1.0, 1e-3], [1e-3, 1.0]])), [(1e-200, (0, 1))]),
    "mixed-q-column": ((1.0, 0.0, np.array([[1.0, 1e-3], [1e-3, 1.0]])),
                       [(np.array([[0.0], [1e-200]]), (1, 0))]),
}


@pytest.mark.parametrize("points", list(PROJECTIVE_POINTS))
@pytest.mark.parametrize("name", list(CHI))
def test_projective_endpoint_is_exactly_one_bit(name, points):
    # `kept_weight` decides for both engines: q = 0 keeps |00><00| with weight
    # 1 however small its weight, so chi is exactly one bit, and a vanishing
    # weight at q > 0 is refused with the same message and index
    engine = ENGINES[name]
    (omega, gamma, temperature), refusals = PROJECTIVE_POINTS[points]
    point_arrays = np.broadcast_arrays(omega, gamma, temperature)
    underflowed = (point_arrays[1] == 0.0) & (point_arrays[0] / point_arrays[2] >= 1000.0)
    spectrum, entropy_state, entropy_average, success = engine(omega, gamma, temperature, 0.0)
    ones = np.ones(underflowed.shape)
    kept_projector = ones[..., np.newaxis] * [1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(np.moveaxis(spectrum, 0, -1), kept_projector)
    assert np.array_equal(entropy_average - entropy_state, ones)
    assert np.array_equal(success == 0.0, underflowed)
    assert np.array_equal(success > 0.0, ~underflowed)
    assert np.array_equal(CHI[name](omega, gamma, temperature, 0.0), ones)
    for index in np.ndindex(ones.shape):
        params = GravcatParams(*(float(x[index]) for x in point_arrays))
        report = engine_report(engine, params, 1.0)
        assert report.chi == 1.0 and report.state_spectrum == (1.0, 0.0, 0.0, 0.0)
        assert report.success_probability == np.broadcast_to(success, ones.shape)[index]
        with pytest.raises(OutOfRangeError):
            engine_report(engine, params, 1.0 + 1e-12)
    for (q, index), function in itertools.product(refusals, (engine, CHI[name])):
        with pytest.raises(ZeroSuccessProbabilityError) as info:
            function(omega, gamma, temperature, q)
        assert info.value.index == index
        assert str(info.value) == "post-selection success probability 0.000e+00 vanishes"


# ------------------------------------------- the entropy kernel's bits

def test_engine_entropies_equal_the_summed_form_bit_for_bit():
    # 300,000 points over the whole accepted box, plus one NaN in each input
    nan_rows = np.full((4, 4), 0.5)
    np.fill_diagonal(nan_rows, math.nan)
    seen_zero = seen_subnormal = seen_pure = False
    for seed in range(3):
        columns = np.array(log_uniform_box(100_000, seed))
        if seed == 0:
            columns = np.concatenate([columns, nan_rows], axis=1)
        omega, gamma, temperature, q = columns
        spectrum, entropy_state, entropy_average, _ = closed_form_engine(
            omega, gamma, temperature, q
        )
        terms = _post_selected_terms(_thermal_terms(omega, gamma, temperature), q)
        want_state, want_average = summed_entropies(terms)
        assert_same_bits(entropy_state, want_state)
        assert_same_bits(entropy_average, want_average)
        seen_zero |= (spectrum == 0.0).any()
        seen_subnormal |= ((0.0 < spectrum) & (spectrum < np.finfo(float).tiny)).any()
        seen_pure |= (entropy_state == 0.0).any()
        if seed == 0:
            assert np.isnan(entropy_state[-4:]).all() and np.isnan(entropy_average[-4:]).all()
    assert seen_zero and seen_subnormal and seen_pure


def test_scalar_inputs_have_the_bits_of_the_batch():
    # Python floats give the stack the shape (6,), whose rows are written
    # through views: every output has the bits of the batch element, over
    # the box with its q = 1 and q = 0, at q = 0 where the kept weight
    # underflows, and with one NaN in each input
    nan_rows = np.full((4, 4), 0.5)
    np.fill_diagonal(nan_rows, math.nan)
    underflowed = np.array([[1.0], [0.0], [1e-3], [0.0]])
    columns = np.concatenate([np.array(log_uniform_box(2_000, 4)), underflowed, nan_rows], axis=1)
    spectrum, *entropies_and_success = closed_form_engine(*columns)
    assert entropies_and_success[2][-5] == 0.0 and spectrum[:, -5].tolist() == [1.0, 0.0, 0.0, 0.0]
    for i, point in enumerate(columns.T.tolist()):
        got_spectrum, *got = closed_form_engine(*point)
        assert got_spectrum.shape == (4,)
        assert_same_bits(got_spectrum, spectrum[:, i])
        for value, batch in zip(got, entropies_and_success, strict=True):
            assert np.ndim(value) == 0
            assert_same_bits(value, batch[i])


def test_both_engines_give_the_spectrum_one_layout():
    # the leading axis holds the four eigenvalues, at a point and on a grid block
    omega, temperature = np.linspace(0.1, 3.0, 5)[:, np.newaxis], np.linspace(0.05, 2.0, 7)
    for args, shape in (((1.0, 0.5, 0.8, 0.7), ()), ((omega, 0.5, temperature, 0.7), (5, 7))):
        for engine in (closed_form_engine, numeric_engine):
            assert np.shape(engine(*args)[0]) == (4,) + shape


def test_entropy_kernel_on_every_tuple_of_special_values():
    # every spectrum of four values and every (nu, mu) pair from a set with
    # both zeros, subnormals, the least normal, ordinary values, inf and NaN
    special = np.array(
        [0.0, -0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e-300, 0.25, 0.5, 1.0, np.inf, math.nan]
    )
    grid = np.stack(np.meshgrid(*[special] * 4, indexing="ij")).reshape(4, -1)
    terms = ClosedFormTerms(None, np.concatenate([grid, grid[:2]]))  # nu, mu = rows 0, 1
    for got, want in zip(closed_form_entropies(terms), summed_entropies(terms)):
        assert_same_bits(got, want)
    # a pure state, as a stack of shape (6,): a running sum from +0.0 never
    # turns into -0.0
    pure = ClosedFormTerms(None, np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]))
    assert [str(v) for v in closed_form_entropies(pure)] == ["0.0", "1.0"]


def test_zero_splitting_has_the_bits_of_the_least_positive_splitting():
    # omega = 0, the pure-coupling limit, takes no special route: both engines
    # and the optimizer give it the bits of omega = 5e-324, the least double
    # above 0, over a wide box with zeros in gamma and q
    _, gamma, temperature, q = log_uniform_box(20_000, 23)
    q[::7], q[::13] = 1.0, 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for engine in (closed_form_engine, numeric_engine):
            zero = engine(0.0, gamma, temperature, q)
            least = engine(math.ulp(0.0), gamma, temperature, q)
            for got, want in zip((*zero[0], *zero[1:]), (*least[0], *least[1:])):
                assert_same_bits(got, want)
        for got, want in zip(optimize_strength_many(0.0, gamma, temperature),
                             optimize_strength_many(math.ulp(0.0), gamma, temperature)):
            assert_same_bits(got, want)
