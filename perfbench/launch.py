"""Run qrmodal's command line from this checkout, optionally traced.

    python3 perfbench/launch.py SPANS_FILE|- ARGS...

With a file name instead of "-", the benchmark's span wrappers are
installed before qrmodal.cli.main runs, and the spans are written to
that file when it returns or raises.  Exit status and output are those
of the `qrmodal` console script.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> None:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import qrmodal.cli
    import_s = time.perf_counter() - t0
    if out == "-":
        sys.exit(qrmodal.cli.main(argv))
    sys.path.insert(0, str(HERE))
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = qrmodal.cli.main(argv)
    finally:
        tracer.dump(out, import_s=import_s)
    sys.exit(code)


if __name__ == "__main__":
    main()
