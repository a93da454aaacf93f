"""The numeric engine solves each distinct Hamiltonian once and keeps the bits
of the engine that broadcast every input first and solved every cell
(``conftest.broadcast_numeric_engine``)."""

import warnings

import numpy as np
import pytest

import gravcat_coding.linalg as linalg_module
import gravcat_coding.sweep as sweep_module
from gravcat_coding import (
    DEFAULT_AXES, FIGURES, AxisSpec, NotHermitianError, NumericalNoiseWarning, figure_grid,
)
from gravcat_coding.numeric import _marginal_replacement, _post_select, numeric_engine
from conftest import assert_same_bits, broadcast_numeric_engine


def assert_same_outputs(omega, gamma, temperature, q) -> None:
    """The four outputs of both engines, shape and bits."""
    got = numeric_engine(omega, gamma, temperature, q)
    want = broadcast_numeric_engine(omega, gamma, temperature, q)
    for g, w in zip(got, want, strict=True):
        assert np.shape(g) == np.shape(w)
        assert_same_bits(g, w)


def wide_box(seed: int, a: int, b: int, c: int):
    """Seeded omega, gamma of shape (a, 1, 1), T (1, b, 1) and q (1, 1, c):
    omega 10^U(-3, 3), gamma 10^U(-6, 3) with every tenth 0, T 10^U(-6, 3)
    and q 10^U(-9, 0) with every seventh 1."""
    rng = np.random.default_rng(seed)
    omega = 10.0 ** rng.uniform(-3.0, 3.0, a)
    gamma = 10.0 ** rng.uniform(-6.0, 3.0, a)
    gamma[::10] = 0.0
    temperature = 10.0 ** rng.uniform(-6.0, 3.0, b)
    q = 10.0 ** rng.uniform(-9.0, 0.0, c)
    q[::7] = 1.0
    return (omega[:, np.newaxis, np.newaxis], gamma[:, np.newaxis, np.newaxis],
            temperature[np.newaxis, :, np.newaxis], q[np.newaxis, np.newaxis, :])


def test_wide_box_has_the_bits_of_the_broadcast_engine(solve_counts):
    # 20,000 points over 40 Hamiltonians, 25 temperatures and 20 strengths
    assert_same_outputs(*wide_box(2024, 40, 25, 20))
    assert solve_counts["eigh"] == [2, 40 + 20_000]  # this engine, then the broadcast one


@pytest.mark.parametrize(
    "layout",
    [
        lambda w, g, t, q: (w[0, 0, 0], g[0, 0, 0], t[0, 0, 0], q[0, 0, 0]),  # one point
        lambda w, g, t, q: (w[3, 0, 0], g[3, 0, 0], t, q),  # one Hamiltonian
        lambda w, g, t, q: (w[:, :, 0], g[0, 0, 0], t[0, :, 0], q[0, 0, 0]),  # omega against T
        lambda w, g, t, q: (w[0, 0, 0], g[:, 0, 0], t[0, 0, 0], q[0, 0, :, np.newaxis]),
    ],
    ids=["scalars", "shared-hamiltonian", "omega-by-T", "q-by-gamma"],
)
def test_broadcast_layouts_have_the_bits_of_the_broadcast_engine(layout):
    assert_same_outputs(*layout(*wide_box(7, 40, 25, 20)))


def test_huge_hamiltonians_are_scaled_on_their_own_stack():
    # entries of H from 2^1021 on scale H and T by 2^-4; the scale is taken
    # over the 5 Hamiltonians and broadcast over the 5 x 6 temperatures
    omega = np.array([1e308, 1.0, 8e307, 2.3e307, 3e307])[:, np.newaxis]
    gamma = np.array([1e307, 1.0, 0.0, 1.5e308, 3e307])[:, np.newaxis]
    temperature = np.array([1e-6, 1.0, 5e306, 1e300, 1e307, 1e308])
    q = np.array([1.0, 0.3, 0.5, 1.0, 0.1])[:, np.newaxis]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert_same_outputs(omega, gamma, temperature, q)


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_grids_have_the_bits_of_the_broadcast_engine(monkeypatch, figure_id):
    preset = FIGURES[figure_id]
    x = AxisSpec(preset.x, *DEFAULT_AXES[preset.x][:2], 7)
    y = AxisSpec(preset.y, *DEFAULT_AXES[preset.y][:2], 5)
    got = figure_grid(figure_id, "numeric", x, y).values
    monkeypatch.setitem(sweep_module.ENGINES, "numeric", broadcast_numeric_engine)
    assert_same_bits(got, figure_grid(figure_id, "numeric", x, y).values)


def test_clamp_warnings_are_those_of_the_broadcast_engine(monkeypatch):
    # no spectrum of the wide box reaches the warning band, so the band is
    # widened to every negative eigenvalue, rounding noise included: each
    # call warns once per entropy whose spectrum has one, naming the first
    monkeypatch.setattr(linalg_module, "EIG_CLAMP_FLOOR", 0.0)
    omega, gamma, temperature, q = wide_box(11, 40, 25, 20)
    messages = []
    for engine in (numeric_engine, broadcast_numeric_engine):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for row in range(omega.shape[0]):
                engine(omega[row], gamma[row], temperature, q)
        assert all(issubclass(w.category, NumericalNoiseWarning) for w in caught)
        messages.append([str(w.message) for w in caught])
    assert messages[0] == messages[1]
    assert 0 < len(messages[0]) < 2 * omega.shape[0]


def seeded_states(samples: int) -> np.ndarray:
    """``samples`` seeded 4x4 density matrices, exactly symmetric, of unit trace."""
    g = np.random.default_rng(samples).standard_normal((samples, 4, 4))
    rho = g @ g.swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1)[:, np.newaxis, np.newaxis]
    return 0.5 * (rho + rho.swapaxes(-1, -2))


@pytest.mark.parametrize("samples", [1, 9])
def test_marginal_replacement_has_the_bits_of_the_einsum_partial_trace(samples):
    rho = seeded_states(samples)
    reduced = np.einsum("...abac->...bc", rho.reshape(samples, 2, 2, 2, 2))
    want = np.zeros_like(rho)
    want[:, :2, :2] = want[:, 2:, 2:] = 0.5 * reduced
    assert_same_bits(_marginal_replacement(rho), want)


@pytest.mark.parametrize("samples", [1, 9])
@pytest.mark.parametrize("layout", ["scalar", "per-sample", "two-rows"])
def test_post_select_has_the_bits_of_the_kraus_formula(samples, layout):
    rho = seeded_states(samples)
    shape = {"scalar": (), "per-sample": (samples,), "two-rows": (2, samples)}[layout]
    q = np.random.default_rng(samples + 1).uniform(0.0, 1.0, shape)  # "two-rows" as in verify
    state, success = _post_select(rho, q)
    s = np.sqrt(q)
    k = np.stack(np.broadcast_arrays(1.0, s, s, s * s), axis=-1)  # diag of Q (x) Q
    kept = rho * (k[..., :, np.newaxis] * k[..., np.newaxis, :])  # outer(k, k) per sample
    trace = kept.diagonal(axis1=-2, axis2=-1).sum(axis=-1)
    assert_same_bits(success, trace)
    assert_same_bits(state, kept / trace[..., np.newaxis, np.newaxis])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("name", ["omega", "gamma"])
def test_non_finite_hamiltonian_is_refused_before_the_solver(name, bad, solve_counts):
    # the engines' Hamiltonians skip the symmetry scan unless an entry is
    # huge or not finite; the scan then names the first such matrix
    inputs = {"omega": np.array([0.5, 1.0, 2.0]), "gamma": np.array([[1.0], [3.0]])}
    inputs[name][-1] = bad
    with np.errstate(invalid="ignore"), pytest.raises(NotHermitianError, match="by nan") as info:
        numeric_engine(inputs["omega"], inputs["gamma"], 1.0, 0.5)
    assert info.value.index == {"omega": (0, 2), "gamma": (1, 0)}[name]
    assert solve_counts["eigh"] == [0, 0]
