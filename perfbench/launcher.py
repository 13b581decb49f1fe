"""Traced stand-in for ``python -m beadiag.cli``.

Usage: launcher.py SPANS_OUT RUN_ID [beadiag arguments...]

Imports ``beadiag.cli`` (timed), wraps the layers' public functions, runs
``beadiag.cli.main`` on the remaining arguments, writes the spans to
SPANS_OUT and exits with main's exit code.
"""

import sys
import time


def main():
    t0 = time.perf_counter()
    import beadiag.cli

    import_s = time.perf_counter() - t0
    import spans

    out, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    recorder = spans.Recorder(run_id)
    spans.install(recorder)
    try:
        return beadiag.cli.main(argv)
    finally:
        recorder.dump(out, extra={"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
