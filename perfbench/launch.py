"""Traced CLI launcher: run ``gravcat_coding.cli.main`` with every traced
function wrapped, then save the spans.

    python3 perfbench/launch.py <spans.npz> <cli arguments...>   (from the repository root)

The import of ``gravcat_coding.cli`` is timed before the tracing module (and
its wrappers) load, so ``import_s`` is the cost of a fresh CLI import.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path.cwd() / "src"))

t0 = perf_counter()
import gravcat_coding.cli as cli  # noqa: E402

import_s = perf_counter() - t0

from tracing import Recorder  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sub = "version" if argv[0] == "--version" else argv[0]
    rec = Recorder()
    rec.install()

    def call() -> int:
        with rec.span(f"cli.main.{sub}"):
            try:
                return cli.main(argv)
            except SystemExit as exc:  # argparse exits after --version
                return exc.code if isinstance(exc.code, int) else 0

    code = rec.run_op(0, call)
    sys.stdout.flush()
    rec.save(spans_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
