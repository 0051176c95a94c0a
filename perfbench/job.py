"""One benchmark job in a fresh process.

Usage: ``python3 perfbench/job.py`` from the repository root, with a JSON
request ``{"argv": [...], "trace": bool}`` on stdin.  The process imports
``mclift`` from ``src/``, reads the request, optionally installs the
tracer, and times ``mclift.cli.main(argv)`` with stdout and stderr
captured.  It prints one JSON object: the clock readings (``perf_counter``,
which every process on the host shares), the exit code, the captured
streams, any traceback, its max RSS and, when traced, its spans.
"""

import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import mclift.cli  # noqa: E402

READY = time.perf_counter()


def main():
    if not mclift.cli.__file__.startswith(os.path.join(ROOT, "src")):
        raise SystemExit("mclift imported from %s, not from this checkout"
                         % mclift.cli.__file__)
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    failure = None
    start = time.perf_counter()
    try:
        code = mclift.cli.main(request["argv"])
    except SystemExit as e:
        code = e.code
    except Exception:
        code = None
        failure = traceback.format_exc()
    end = time.perf_counter()
    sys.stdout, sys.stderr = real_out, real_err
    result = {"ready": READY, "start": start, "end": end, "code": code,
              "stdout": out.getvalue(), "stderr": err.getvalue(),
              "traceback": failure,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["trace"] = tracer.dump()
    json.dump(result, real_out)


if __name__ == "__main__":
    main()
