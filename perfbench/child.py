"""One benchmark operation in a fresh process.

Usage: ``python3 perfbench/child.py REQUEST.json``.  The request names a
mode, ``setup`` or ``run``:

* ``setup`` times the package import plus writing the workload's inputs.
* ``run`` imports the package, optionally installs the tracer, and times
  one ``hashbound.cli.main(argv)`` call.

The result (times, exit code, peak RSS of this process) is written to
``result.json`` next to the request; a traced run also writes ``spans.json``.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(request_path: str) -> None:
    request = json.loads(Path(request_path).read_text())
    out = Path(request["dir"])
    result = {}
    if request["mode"] == "setup":
        start = perf_counter()
        import hashbound.cli

        import workloads

        workloads.make_inputs(
            request["workload"], request["seed"], out, hashbound.cli.main
        )
        result["setup_s"] = perf_counter() - start
    else:
        import hashbound.cli

        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = perf_counter()
        code = hashbound.cli.main(request["argv"])
        result["wall_s"] = perf_counter() - start
        result["exit_code"] = code
        if tracer is not None:
            tracer.dump(out / "spans.json")
    result["peak_rss_mb"] = _peak_rss_mb()
    (out / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
