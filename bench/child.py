"""One scenario execution in a fresh interpreter, as a CLI user pays it.

Usage (from the root of a checkout):
    python3 bench/child.py CONFIG OUT_DIR RESULT_JSON T0 [--setup-only]
                           [--trace SPANS_JSON]

T0 is the parent's ``time.monotonic()`` just before it started this
process, so setup time includes interpreter start.  Setup ends once
``regimehedge`` is imported, the config is loaded and the grid is built.
The result (exit code, setup_s, wall_s, peak_rss_mb) goes to RESULT_JSON.
"""

import sys
import time


def main(argv):
    config, out_dir, result_path, t0 = argv[:4]
    t0 = float(t0)
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    import json
    import os
    import resource

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import numpy as np
    import regimehedge
    from regimehedge.cli import run_scenario
    from regimehedge.scenario import load_scenario
    from regimehedge.volterra_pricer import Grid

    if not os.path.abspath(regimehedge.__file__).startswith(src + os.sep):
        print(f"regimehedge imported from {regimehedge.__file__}, not from "
              f"{src}", file=sys.stderr)
        return 2
    scn = load_scenario(config)
    Grid(scn.market, scn.horizon, np.stack([ep[1] for ep in scn.eval_points]),
         scn.grid_spec)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}

    if not setup_only:
        tracer = None
        if spans_path:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        rc = run_scenario(config, out_dir, threads=1)
        result["wall_s"] = time.perf_counter() - start
        result["rc"] = rc
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(spans_path)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
