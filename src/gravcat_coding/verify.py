"""Cross-engine verification: every closed form replayed against its
independent numeric route on seeded random parameter draws.

The draw stream is the SplitMix64 contract from `rng`; per sample, four
uniforms are consumed in a documented order, so the draws are exact in any
implementation that honors the same generator.  The report's bytes are the
same in two runs only on the same numpy build at the same CPU dispatch
level: numpy picks its exp, expm1 and log2 loops by CPU, and with its
AVX-512 loops disabled ``max_deviation`` moved by up to 5.1e-15, and a
check's worst sample can name another draw that ties within that.  Samples
are drawn in chunks of ``CHUNK_SIZE``, each chunk with one counter-based
array draw that consumes the stream in that same order, and each chunk is
evaluated once over stacks of 4x4 matrices by the kernels both engines
run, so memory stays bounded for any sample count.  The report does not
depend on the chunk size.  The two capacity checks run each engine's own
stages once per chunk over both strengths, q = 1 and q = 1 - p, so each
deviation is |chi_closed_form - chi_numeric| at that draw, bit for bit:
the numeric p = 0 capacity is that of the Gibbs state post-selected at
q = 1 and divided by its trace, as `capacity --engine numeric` prints it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .closed_form import _chi_from_terms, _post_selected_terms, _thermal_terms, x_state
from .linalg import LocatedError, check_density
from .numeric import (
    _entropies, _gibbs, _hamiltonian, _marginal_replacement, _post_select, _twirl,
)
from .rng import SplitMix64
from .thermal import GravcatParams, check_domain
from .version import STAMP

# check name -> deviation threshold; report order is fixed
CHECKS: tuple[tuple[str, float], ...] = (
    ("thermal_state_closed_vs_numeric", 1e-10),
    ("capacity_closed_vs_numeric", 1e-9),
    ("wm_state_closed_vs_kraus", 1e-12),
    ("wm_capacity_closed_vs_numeric", 1e-9),
    ("twirl_vs_marginal_identity", 1e-12),
)

# documented draw mapping; four uniforms u1..u4 per sample, in this order
OMEGA_SPAN = 5.0       # omega = 5 (1 - u1), in (0, 5]
GAMMA_SPAN = 5.0       # gamma = 5 u2, in [0, 5)
T_LO, T_HI = 0.05, 10.0  # T = 0.05 + 9.95 u3
P_HI = 0.99            # p = 0.99 u4
WORST_SAMPLE_KEYS = ("index", "omega", "gamma", "temp", "p")


def draw_samples(rng: SplitMix64, n: int) -> np.ndarray:
    """``n`` samples from the contractual draw order, one row (omega, gamma, T, p) each.

    The 4n uniforms come from one array draw; row i maps u1..u4 of sample i.
    The rows are not validated here.
    """
    u1, u2, u3, u4 = rng.next_floats(4 * n).reshape(n, 4).T
    omega = OMEGA_SPAN * (1.0 - u1)
    gamma = GAMMA_SPAN * u2
    temperature = T_LO + (T_HI - T_LO) * u3
    strength = P_HI * u4
    return np.stack((omega, gamma, temperature, strength)).T  # contiguous columns


def draw_sample(rng: SplitMix64) -> tuple[GravcatParams, float]:
    """One parameter tuple from the contractual draw order."""
    omega, gamma, temperature, strength = draw_samples(rng, 1)[0].tolist()
    return GravcatParams(omega=omega, gamma=gamma, temperature=temperature), strength


CHUNK_SIZE = 4096  # samples per stack; bounds the memory, never changes the report


def _max_abs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Largest entry deviation of each matrix pair of two stacks."""
    return np.abs(a - b).max(axis=(-2, -1))


def _deviations(omega, gamma, temperature, strength) -> dict[str, tuple[np.ndarray, ...]]:
    """Per check, the deviations of each sample, one array per compared quantity."""
    q = np.empty((2, *strength.shape))  # rows: p = 0, drawn p
    q[0] = 1.0
    np.subtract(1.0, strength, out=q[1])
    thermal = _thermal_terms(omega, gamma, temperature)
    terms = _post_selected_terms(thermal, q)
    rho_cf = check_density(x_state(thermal))
    rho_num = _gibbs(_hamiltonian(omega, gamma), temperature)
    wm_cf = x_state(thermal, q[1]) / terms.success[1, :, np.newaxis, np.newaxis]
    wm_kraus, kraus_success = _post_select(rho_cf, q[1])
    states, _ = _post_select(rho_num, q, full_support=True)  # as `numeric_engine` does
    averages = _twirl(states)  # each row feeds a capacity and the identity
    _, entropy_state, entropy_average = _entropies(states, averages)
    capacity = np.abs(_chi_from_terms(terms) - (entropy_average - entropy_state))
    return {
        "thermal_state_closed_vs_numeric": (_max_abs(rho_cf, rho_num),),
        "capacity_closed_vs_numeric": (capacity[0],),
        "wm_state_closed_vs_kraus": (
            _max_abs(wm_cf, wm_kraus), np.abs(terms.success[1] - kraus_success)
        ),
        "wm_capacity_closed_vs_numeric": (capacity[1],),
        "twirl_vs_marginal_identity": tuple(_max_abs(averages, _marginal_replacement(states))),
    }


def verification_report(samples: int, seed: int) -> dict:
    """Max deviation per dual-route check over `samples` seeded draws.

    Each check also names its worst sample, the first draw (0-based) that
    reaches the maximum.  A NaN deviation ranks above every number: its
    check fails, reports ``max_deviation`` None (JSON has no NaN) and names
    the first NaN draw.  A domain or kernel error names its sample.
    """
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = SplitMix64(seed)
    worst = {name: (-np.inf, None) for name, _ in CHECKS}  # (deviation, worst_sample)
    for start in range(0, samples, CHUNK_SIZE):
        draws = draw_samples(rng, min(CHUNK_SIZE, samples - start))
        omega, gamma, temperature, strength = columns = draws.T
        try:
            check_domain(omega=omega, gamma=gamma, temperature=temperature, strength=strength)
            deviations = _deviations(*columns)
        except LocatedError as exc:
            sample = start + exc.index[0]
            raise type(exc)(f"verify sample {sample}: {exc}", (sample,)) from exc
        for name, quantities in deviations.items():
            per_sample = functools.reduce(np.maximum, quantities)  # NaN if any is NaN
            i = int(per_sample.argmax())  # the first NaN, else the first maximum
            deviation, held = float(per_sample[i]), worst[name][0]
            if deviation > held or (math.isnan(deviation) and not math.isnan(held)):
                point = (start + i, *columns[:, i].tolist())  # ties keep the earlier sample
                worst[name] = (deviation, dict(zip(WORST_SAMPLE_KEYS, point)))

    checks = {}
    for name, threshold in CHECKS:
        deviation = max(worst[name][0], 0.0)  # NaN stays NaN
        checks[name] = {
            "max_deviation": None if math.isnan(deviation) else deviation,
            "threshold": threshold,
            "passed": deviation < threshold,  # False for NaN
            "worst_sample": worst[name][1],
        }
    return {
        **STAMP,
        "generator": "splitmix64",
        "samples": samples,
        "seed": seed,
        "checks": checks,
        "all_passed": all(entry["passed"] for entry in checks.values()),
    }
