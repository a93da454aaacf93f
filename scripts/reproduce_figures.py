#!/usr/bin/env python3
"""Write the CSV data grids (plus config sidecars) behind every built-in figure.

Each grid lands in --outdir as figure_<id>.csv with a figure_<id>.csv.json
sidecar recording the exact configuration; feed the CSVs to any heatmap
plotter.  Runs are deterministic, so re-running overwrites identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from gravcat_coding import FIGURES, figure_config, figure_grid, render_csv


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="figures", help="output directory (default: figures)")
    parser.add_argument(
        "--engine", choices=("closed_form", "numeric"), default="closed_form",
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
    for fid in args.ids:
        started = time.perf_counter()
        grid = figure_grid(fid, engine=args.engine)
        target = outdir / f"figure_{fid}.csv"
        target.write_text(render_csv(grid), encoding="utf-8")
        sidecar = target.with_suffix(target.suffix + ".json")
        sidecar.write_text(json.dumps(figure_config(fid, grid), indent=2) + "\n", encoding="utf-8")
        peak = float(grid.values.max())
        print(
            f"figure {fid}: {grid.values.shape[0]}x{grid.values.shape[1]} grid, "
            f"max chi {peak:.4f}, {time.perf_counter() - started:.1f}s -> {target}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
