#!/usr/bin/env python3
"""Write tests/data/golden_chi.json: high-precision dense-coding capacities.

Each entry is a parameter point (omega, gamma, T, p) drawn log-uniformly over
the accepted domain, together with chi evaluated in mpmath from first
principles: the Hamiltonian blocks are diagonalized numerically, the Gibbs
state is built from its Boltzmann weights, the weak measurement is applied
as a Kraus conjugation, and the entropies come from a second numerical
diagonalization.  No closed-form spectrum of the package is used.  Every
value is computed twice, at 60 and at 100 significant digits, and the script
refuses to write the table unless the two agree to 1e-40.

Needs mpmath (not a package dependency).  Run from the repository root:

    python3 scripts/make_golden_chi.py [--points 500] [--seed 20011] [--output PATH]
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import mpmath
from mpmath import mp

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "golden_chi.json"
DIGITS = 30  # significant digits written per chi
AGREEMENT = mpmath.mpf("1e-40")


def _gibbs_block(block, t, ground):
    """exp(-(B - ground)/T) for a real symmetric 2x2 block B, via its eigenvectors."""
    energies, vectors = mp.eigsy(block)
    out = mp.zeros(2, 2)
    for k in range(2):
        weight = mp.exp(-(energies[k] - ground) / t)
        for i in range(2):
            for j in range(2):
                out[i, j] += weight * vectors[i, k] * vectors[j, k]
    return out


def _entropy_bits(values) -> mpmath.mpf:
    return -sum((v * mp.log(v, 2) for v in values if v > 0), mpmath.mpf(0))


def golden_chi(omega: float, gamma: float, temperature: float, strength: float, dps: int):
    """chi at ``dps`` digits for the exact binary values of the float inputs."""
    with mp.workdps(dps):
        w, g, t = mpmath.mpf(omega), mpmath.mpf(gamma), mpmath.mpf(temperature)
        q = 1 - mpmath.mpf(strength)
        # H = (w/2)(I(x)sz + sz(x)I) - g sx(x)sx splits into the {|00>, |11>}
        # and {|01>, |10>} blocks; the ground energy is -sqrt(w^2 + g^2)
        outer_h = mp.matrix([[w, -g], [-g, -w]])
        middle_h = mp.matrix([[0, -g], [-g, 0]])
        ground = -mp.sqrt(w * w + g * g)
        outer = _gibbs_block(outer_h, t, ground)
        middle = _gibbs_block(middle_h, t, ground)
        # Kraus conjugation by diag(1, sqrt q) (x) diag(1, sqrt q)
        outer[0, 1] *= q
        outer[1, 0] *= q
        outer[1, 1] *= q * q
        middle *= q
        success = outer[0, 0] + outer[1, 1] + middle[0, 0] + middle[1, 1]
        outer /= success
        middle /= success
        spectrum = list(mp.eigsy(outer, eigvals_only=True)) + list(
            mp.eigsy(middle, eigvals_only=True)
        )
        # the Pauli twirl of the first qubit gives (I/2) (x) tr_A(rho); for
        # this X-shaped state tr_A(rho) = diag(rho_00 + rho_10, rho_01 + rho_11)
        nu = outer[0, 0] + middle[1, 1]
        mu = middle[0, 0] + outer[1, 1]
        average = [nu / 2, nu / 2, mu / 2, mu / 2]
        return _entropy_bits(average) - _entropy_bits(spectrum)


def draw_points(count: int, seed: int) -> list[tuple[float, float, float, float]]:
    """Log-uniform draws: omega 10^U(-3,3), gamma 10^U(-6,3) or 0, T 10^U(-6,3), p."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        omega = 10.0 ** rng.uniform(-3.0, 3.0)
        gamma = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-6.0, 3.0)
        temperature = 10.0 ** rng.uniform(-6.0, 3.0)
        # p = 0 (no measurement) in about 10 % of points, else q = 1 - p log-uniform
        strength = 0.0 if rng.random() < 0.1 else 1.0 - 10.0 ** rng.uniform(-9.0, 0.0)
        points.append((omega, gamma, temperature, strength))
    return points


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20011)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    rows = []
    for omega, gamma, temperature, strength in draw_points(args.points, args.seed):
        low = golden_chi(omega, gamma, temperature, strength, 60)
        high = golden_chi(omega, gamma, temperature, strength, 100)
        if abs(low - high) > AGREEMENT:
            raise SystemExit(
                f"precision check failed at {(omega, gamma, temperature, strength)!r}: "
                f"{mpmath.nstr(low, 40)} vs {mpmath.nstr(high, 40)}"
            )
        chi = mpmath.nstr(high, DIGITS, min_fixed=-mpmath.inf, max_fixed=mpmath.inf)
        rows.append(json.dumps([omega, gamma, temperature, strength, chi]))
    header = {
        "schema_version": 1,
        "generator": f"scripts/make_golden_chi.py --points {args.points} --seed {args.seed}",
        "mpmath": mpmath.__version__,
        "digits": DIGITS,
        "columns": ["omega", "gamma", "T", "p", "chi"],
    }
    # one point per line keeps the table diffable
    text = json.dumps(header)[:-1] + ', "points": [\n' + ",\n".join(rows) + "\n]}\n"
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(text, encoding="utf-8")
    print(f"wrote {len(rows)} points to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
