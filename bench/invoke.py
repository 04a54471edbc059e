"""One gaitnorm command in a fresh interpreter, measured from the inside.

    python3 bench/invoke.py '<argv as a JSON list>' [--trace]

``gaitnorm.cli`` is imported before the clock starts, so the wall time
excludes the cold start that ``setup_s`` measures. The last line of stdout
is one JSON object: exit code, wall seconds, peak RSS and, when traced,
the spans with their self times and counts.
"""

import json
import resource
import sys
import time
from contextlib import nullcontext

from gaitnorm.cli import main

from spans import ROOT, Tracer


def run(argv, trace):
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    with tracer.span(ROOT) if tracer else nullcontext():
        rc = main(argv)
    wall_s = time.perf_counter() - t0
    result = {"rc": rc, "wall_s": wall_s,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        result.update(self_s=tracer.self_times(), counts=tracer.counts,
                      installed=sorted(tracer.installed),
                      broken=sorted(tracer.broken_counters),
                      spans=tracer.records(t0))
    return result


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]), "--trace" in sys.argv[2:])
    print(json.dumps(result))
    sys.exit(result["rc"])
