"""One sweep in a fresh interpreter: import cliffsig from this checkout's
``src``, call ``cliffsig.verify.run_suite`` once, print one JSON line.

run.py starts this file once per sample, so the package's caches (the
``expected_invariants`` lru_cache among them) start cold, as they do for a
``cliffsig verify`` user.  By hand:

    python3 perfbench/sweep.py --suite table4 --max-n 3 --seed 0 [--trace]

``--setup-only`` stops after import and argument handling; ``ready`` is
the CLOCK_MONOTONIC time at that point, which the parent subtracts from
its own start time to get the set-up time.
"""

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--suite", required=True)
    ap.add_argument("--max-n", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cliffsig
    from cliffsig.verify import run_suite

    if src not in Path(cliffsig.__file__).resolve().parents:
        print(f"cliffsig imported from {cliffsig.__file__}, not {src}", file=sys.stderr)
        return 3
    ready = time.monotonic()

    out = {
        "ready": ready,
        "backend": getattr(cliffsig, "KERNEL_BACKEND", "python"),
        "python": sys.version.split()[0],
    }
    if not args.setup_only:
        out.update(sweep(run_suite, args))
    print(json.dumps(out))
    return 0


def sweep(run_suite, args) -> dict:
    import resource
    import traceback

    tracer = None
    call = run_suite
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        call = lambda *a: tracer.root(run_suite, *a)  # noqa: E731

    out = {"cells": None, "error": None}
    start = time.perf_counter()
    try:
        report = call(args.suite, args.max_n, args.seed)
        out["sweep_s"] = time.perf_counter() - start
        out["cells"] = report.to_json_dict()["cells"]
    except Exception:  # reported as raising cells, not as a harness crash
        out["error"] = traceback.format_exc()
        out["sweep_s"] = time.perf_counter() - start
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent
        out["spans"] = tracer.spans()
    return out


if __name__ == "__main__":
    sys.exit(main())
