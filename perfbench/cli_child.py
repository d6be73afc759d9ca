"""Traced stand-in for `python -m stftuniq`, used by the traced cli-cold run.

    python3 perfbench/cli_child.py --spans PATH <stftuniq arguments>

Times `import stftuniq` as the span cli.import, installs the span wrappers,
runs stftuniq.cli.main under the span cli.main, and writes the spans to PATH.
The CLI's own output goes to stdout unchanged.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
import time  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print("usage: cli_child.py --spans PATH <stftuniq arguments>", file=sys.stderr)
        return 2
    path, argv = sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import stftuniq.cli
    t1 = time.perf_counter()

    import spans
    tracer = spans.Tracer()
    tracer.spans.append(spans.Span("cli.import", t0, t1))
    spans.install(tracer)
    idx = tracer.open("cli.main")
    try:
        code = stftuniq.cli.main(argv)
    finally:
        tracer.close(idx)
        tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
