#!/usr/bin/env python3
"""Compare the bytes the CLI produces from two source trees.

    python3 scripts/diff_cli_bytes.py BASE_TREE HEAD_TREE

Each command of ``COMMANDS`` runs once per tree in a fresh
``python -m gravcat_coding`` process with ``PYTHONPATH=<tree>/src``, inside
an empty working directory, so a relative ``--output`` lands there.  The
exit code, the stdout bytes and every file the command writes are compared.
Of stderr only the ``error`` class of the JSON error object is compared, on
a command that exits 2; the rest of stderr can carry paths.  An argparse
usage error, which exits 2 with no JSON object and names no path, has its
whole stderr compared.  The list covers the parser's text (``--version``,
``--help`` and each subcommand's ``--help``, and an invalid choice),
every subcommand, both engines, CSV and JSON output, all ten figure presets,
numeric grids whose cells share a Hamiltonian per row or per column,
grids whose cells print in scientific notation or as exact values such as
1.0, grids that take several engine calls (a short last block, and rows
longer than one block), an exit-2 command for each rule of the parameter
domain, ``omega = 0`` on ``capacity`` (both engines), ``sweep``, ``figure``
and ``optimize``, the removed opt-in flag for ``omega = 0`` (a usage error),
``optimize`` at a peak about 1e-9 wide and at two narrow peaks at small
``q = 1 - p`` (about 1.6e-6 and 6.7e-10), ``optimize`` at twelve points of
the benchmark's optimizer box where each of the three candidate strengths
wins at least twice, ``capacity`` (both engines) and
``optimize`` at subnormal ``omega`` and ``gamma``, and ``verify`` at its
default 1000 samples and seed 42, at 5000 samples, two chunks of 4,096 and
904, and at 1 and 4097 samples, which end in a one-sample chunk.
Each command that differs is printed with what differs; where a differing
output holds as many numbers in both trees, the largest absolute difference
between corresponding numbers is printed with it.  The last line gives the
count as "N of M commands differ".  The exit code is 1 on any difference
and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURE_IDS = ("2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b", "6a", "6b")
POINTS = (
    ("1", "1", "1"),
    ("0.8", "2.0", "0.4"),
    ("1", "3", "0.01"),
    ("2.9423374852881232", "9.993036120958809e-05", "0.011439857518148635"),
    ("1e308", "1e307", "1e308"),
)
NUMERIC_5A = ("--engine", "numeric", "--x", "T:0.01:2:24", "--y", "p:0:0.99:24")
# points of the benchmark's optimizer box: omega in (0, 3], gamma in [0, 3),
# T log-uniform on [0.01, 10]; grouped by the candidate that wins
OPTIMIZE_BOX = (
    # the corner-balance strength
    ("2.357030396285227", "2.591490733508084", "0.08497232265965221"),
    ("2.071643907354925", "2.306149509493184", "0.04977358619973068"),
    ("0.012593703403599665", "2.0042279331724675", "0.030617662563298974"),
    ("2.457528558909436", "0.8192651093419749", "0.3824294527420022"),
    # the largest strength below 1
    ("0.9725059860561546", "0.5951169613746335", "3.3736031297178433"),
    ("0.6016017096755005", "2.2078220785992246", "1.886557694253016"),
    ("2.5733045541598445", "2.781769748147668", "1.3042092690082228"),
    ("2.763823398714003", "1.6370085860747978", "2.1165219316757513"),
    ("2", "0", "0.5"),
    ("1.5", "0", "1"),
    # no measurement, at gamma = 0
    ("0.3", "0", "0.01"),
    ("0.25", "0", "0.012"),
)

SUBCOMMANDS = ("capacity", "sweep", "figure", "optimize", "verify")

COMMANDS: tuple[tuple[str, ...], ...] = (
    ("--version",),
    ("--help",),
    *((sub, "--help") for sub in SUBCOMMANDS),
    ("capacity", "--engine", "bogus"),
    *(
        ("capacity", "--omega", w, "--gamma", g, "--temp", t, *extra, "--engine", engine)
        for w, g, t in POINTS
        for extra in ((), ("--p", "0.35"))
        for engine in ("closed_form", "numeric")
    ),
    ("capacity", "--omega", "1", "--gamma", "0", "--temp", "1e-3", "--p", "1"),
    ("capacity", "--omega", "1", "--gamma", "1", "--temp", "0"),
    # one command per domain rule, each exiting 2
    *(
        ("capacity", "--omega", w, "--gamma", g, "--temp", t, *extra)
        for w, g, t, extra in (
            ("-1", "1", "1", ()),
            ("1", "-1", "1", ()),
            ("1", "1", "nan", ()),
            ("1", "1", "1", ("--p", "-0.1")),
        )
    ),
    ("optimize", "--omega", "1", "--gamma", "1", "--temp", "1e-7"),
    ("sweep", "--x", "omega:0.5:1:3", "--y", "T:0.1:2:3", "--gamma", "1", "--p", "nan"),
    ("sweep", "--x", "T:0.1:2:3", "--y", "p:0:1.5:4", "--omega", "1", "--gamma", "1"),
    # omega = 0, the pure-coupling limit, on every command that takes it: the
    # optimizer and H = 0 (the state I/4) on the numeric engine among them;
    # and the removed opt-in flag, now a usage error that exits 2
    ("capacity", "--omega", "0", "--gamma", "1", "--temp", "1"),
    ("optimize", "--omega", "0", "--gamma", "1", "--temp", "1"),
    ("capacity", "--omega", "0", "--gamma", "0", "--temp", "1", "--engine", "numeric", "--p", "1"),
    ("sweep", "--x", "omega:0:3:4", "--y", "T:0.1:2:3", "--gamma", "1"),
    ("figure", "2a", "--y", "omega:0:3:4"),
    ("capacity", "--omega", "0", "--gamma", "1", "--temp", "1", "--allow-zero-omega"),
    ("figure", "5a", "--x", "T:1e-7:1:3"),
    ("capacity", "--omega", "1", "--gamma", "1", "--temp", "1", "--output", "capacity.json"),
    *(
        ("sweep", "--x", "gamma:0:3:17", "--y", "omega:0.01:3:9", "--temp", "0.01", "--p", "0.7",
         "--engine", engine, "--format", fmt)
        for engine in ("closed_form", "numeric")
        for fmt in ("csv", "json")
    ),
    ("sweep", "--x", "T:0.003:2:11", "--y", "p:0:1:6", "--omega", "1.3", "--gamma", "0.4",
     "--output", "sweep.csv"),
    # cells in scientific notation and exact values such as 1.0, which the
    # CSV kernel hands to repr
    *(
        ("sweep", "--x", "omega:0.001:0.01:3", "--y", "T:1:2:2", "--gamma", "0", "--format", fmt)
        for fmt in ("csv", "json")
    ),
    ("figure", "5a", "--x", "T:1e-6:1e-5:3", "--y", "p:0:1:3"),
    # grids of several engine calls: blocks of 27 rows with a short last
    # block, and rows longer than one block
    ("sweep", "--x", "gamma:0:3:300", "--y", "omega:0.01:3:100", "--temp", "0.3", "--p", "0.4"),
    ("sweep", "--x", "omega:0.01:3:9000", "--y", "T:0.05:2:3", "--gamma", "1"),
    *(
        ("figure", fig, "--format", fmt, "--output", f"figure_{fig}.{fmt}")
        for fig in FIGURE_IDS
        for fmt in ("csv", "json")
    ),
    ("figure", "2a"),
    ("figure", "5a", *NUMERIC_5A, "--output", "figure_5a_numeric.csv"),
    ("figure", "5a", *NUMERIC_5A, "--format", "json"),
    # numeric grids whose cells share Hamiltonians: one per omega row, and
    # one per gamma column at fixed omega and T
    ("figure", "3a", "--engine", "numeric", "--x", "T:0.01:2:13", "--y", "omega:0.01:3:11"),
    ("sweep", "--x", "p:0:1:9", "--y", "gamma:0:3:7", "--omega", "1.3", "--temp", "0.05",
     "--engine", "numeric"),
    *(("optimize", "--omega", w, "--gamma", g, "--temp", t) for w, g, t in POINTS),
    *(("optimize", "--omega", w, "--gamma", g, "--temp", t) for w, g, t in OPTIMIZE_BOX),
    # a chi(p) peak about 1e-9 wide at low T
    ("optimize", "--omega", "2.43629677990019", "--gamma", "0.00691859790353444",
     "--temp", "0.01"),
    # a peak at q = 1 - p ~ 1.6e-6, narrower than a 1e-3 step in p, and one
    # at q ~ 6.7e-10, below 1e-9
    ("optimize", "--omega", "589.1944623047525", "--gamma", "0.001866604525764097",
     "--temp", "29.749164530732823"),
    ("optimize", "--omega", "945.5923560605206", "--gamma", "1.2620091565284667e-06",
     "--temp", "8.835663407464747"),
    ("optimize", "--omega", "1", "--gamma", "1", "--temp", "1", "--output", "optimize.json"),
    # subnormal energies, where theta = hypot(omega, gamma) keeps only a few bits
    *(
        ("capacity", "--omega", "5e-324", "--gamma", "5e-324", "--temp", "1e-6", "--engine", engine)
        for engine in ("closed_form", "numeric")
    ),
    ("optimize", "--omega", "5e-324", "--gamma", "5e-324", "--temp", "1e-6"),
    ("verify", "--samples", "1000", "--seed", "42"),
    ("verify", "--samples", "5000", "--seed", "3"),  # 4,096 + 904: across a chunk boundary
    # chunks of one sample, where every per-sample axis has length 1
    ("verify", "--samples", "1", "--seed", "5"),
    ("verify", "--samples", "4097", "--seed", "99"),  # 4,096 + 1
    ("verify", "--samples", "50", "--seed", "7", "--output", "verify.json"),
)


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def max_number_difference(base: bytes, head: bytes) -> float | None:
    """Largest |x - y| over corresponding numbers of two outputs, or None unless
    both hold the same, nonzero count of numbers."""
    xs, ys = NUMBER.findall(base), NUMBER.findall(head)
    if not xs or len(xs) != len(ys):
        return None
    return max(abs(float(x) - float(y)) for x, y in zip(xs, ys))


def _described(name: str, base: bytes | None, head: bytes | None) -> str:
    """``name``, with the largest number difference when the outputs pair up."""
    diff = None if base is None or head is None else max_number_difference(base, head)
    return name if diff is None else f"{name} max |number difference| {diff:.3g}"


def error_class(stderr: bytes) -> str | None:
    """The ``error`` field of the JSON error object on the last stderr line, or None."""
    try:
        return json.loads(stderr.splitlines()[-1])["error"]
    except (IndexError, ValueError, KeyError, TypeError):
        return None  # no JSON error object, such as an argparse usage error


def run(
    tree: Path, argv: tuple[str, ...]
) -> tuple[int, bytes, dict[str, bytes], str | bytes | None]:
    """(exit code, stdout, written files by name, compared stderr) of one fresh
    CLI process; stderr is compared on exit 2 only, as the error class of the
    JSON error object or, for a usage error, as its bytes."""
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        proc = subprocess.run(
            [sys.executable, "-m", "gravcat_coding", *argv],
            cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        )
        files = {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}
    error = (error_class(proc.stderr) or proc.stderr) if proc.returncode == 2 else None
    return proc.returncode, proc.stdout, files, error


def differences(base, head) -> list[str]:
    """What differs between two ``run`` results, empty when they match."""
    base_code, base_out, base_files, base_error = base
    head_code, head_out, head_files, head_error = head
    found = []
    if base_code != head_code:
        found.append(f"exit {base_code} != {head_code}")
    if base_error != head_error:
        classes = isinstance(base_error, str) and isinstance(head_error, str)
        found.append(f"error {base_error} != {head_error}" if classes else "stderr")
    if base_out != head_out:
        found.append(_described("stdout", base_out, head_out))
    for name in sorted(base_files.keys() | head_files.keys()):
        base_bytes, head_bytes = base_files.get(name), head_files.get(name)
        if base_bytes != head_bytes:
            found.append(_described(name, base_bytes, head_bytes))
    return found


def main(argv: list[str] | None = None, commands=COMMANDS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="tree holding src/gravcat_coding")
    parser.add_argument("head", type=Path, help="tree holding src/gravcat_coding")
    args = parser.parse_args(argv)
    differing = 0
    for command in commands:
        found = differences(run(args.base, command), run(args.head, command))
        if found:
            differing += 1
            print(f"DIFFERS ({', '.join(found)}): {' '.join(command)}")
    print(f"{differing} of {len(commands)} commands differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
