#!/usr/bin/env python3
"""Write the CSV data grids (plus config sidecars) behind every built-in figure.

Each grid lands in --outdir as figure_<id>.csv with a figure_<id>.csv.json
sidecar recording the exact configuration; feed the CSVs to any heatmap
plotter.  Every file is written by the CLI's own ``figure`` command, so the
bytes are the command's bytes.  Runs are deterministic, so re-running
overwrites identical bytes.  Exits non-zero if any figure fails.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from gravcat_coding import FIGURES, cli
from gravcat_coding.presets import ENGINE_NAMES


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="figures", help="output directory (default: figures)")
    parser.add_argument(
        "--engine", choices=ENGINE_NAMES, default="closed_form",
        help="evaluation engine (default: closed_form; numeric is the matrix cross-check)",
    )
    parser.add_argument(
        "--ids", nargs="*", default=sorted(FIGURES), help="subset of figure ids to produce"
    )
    args = parser.parse_args(argv)

    unknown = [fid for fid in args.ids if fid not in FIGURES]
    if unknown:
        parser.error(f"unknown figure id(s): {', '.join(unknown)}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for fid in args.ids:
        started = time.perf_counter()
        target = outdir / f"figure_{fid}.csv"
        code = cli.main(["figure", fid, "--engine", args.engine, "--output", str(target)])
        failed += code != 0
        status = f"-> {target}" if code == 0 else f"failed (exit {code})"
        print(f"figure {fid}: {time.perf_counter() - started:.1f}s {status}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
