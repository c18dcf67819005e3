"""cliffsig benchmark: the ``cliffsig verify`` sweeps, end to end and per layer.

    python3 perfbench/run.py --workload table4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

A workload is one verify suite at a fixed ``max_n``; the seed goes to
``run_suite``.  Each sample is one ``run_suite`` call in a fresh
interpreter (sweep.py), started one after another, never two at once,
with PYTHONHASHSEED=0 and CLIFFSIG_PURE_PYTHON=1.  Samples repeat until
``--seconds`` is used up, and every metric is the median over samples.

Times are reported at a fixed machine speed.  On a shared host the same
sweep's wall time drifts by up to a factor of two within a minute, with CPU
time equal to wall time: the interpreter itself runs faster or slower.  So
the harness times a fixed pure-Python loop (``calibrate``, no cliffsig)
in its own process before and after every sample, and scales the
sample's times by CAL_NOMINAL_S over the mean of the two.  The harness and
its samples are pinned to one CPU, so the loop measures the CPU the sample
ran on, and samples are kept short (about a second), so the two loops
bracket it closely.  The raw times and each sample's speed factor are
kept in the result file.

``--trace 0`` reports the end-to-end metrics:
  sweep_s       wall time of one run_suite call
  cell_ms_p50   median over cells of the report's per-cell ``seconds``,
                each cell taken as its median over the sweeps
  cell_ms_tail  highest percentile of those with at least 10 cells beyond
  setup_s       interpreter start through ``import cliffsig`` and argument
                handling; extra import-only samples are added to the sweeps'
  peak_rss_mb   peak resident memory of a sweep's interpreter
``--trace 1`` alternates untraced and traced sweeps and reports the
per-layer metrics of tracer.py plus trace.overhead_ratio, the traced over
the untraced median sweep_s.  Spans go to .bench_build/perfbench/.

Every sweep goes through the gate of gate.py.  ``cell_fail_ratio``, the
failed, missing or raising cells over the expected cells, is printed with
the summary; in the last line it is ``failed`` over ``attempted``.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import gate
import tracer

ROOT = Path(__file__).resolve().parents[1]
SWEEP = Path(__file__).resolve().with_name("sweep.py")
OUT = ROOT / ".bench_build" / "perfbench"

# workload -> (suite, max_n).  Sizes keep one sweep between half a second
# and two seconds: short enough for the calibration loops around it to
# track the machine speed, long enough to hold the workload's regime.
WORKLOADS = {
    "table4": ("table4", 4),
    "table1": ("table1", 6),
    "sigchange": ("sigchange", 3),
    "core": ("core", 3),
}
END_TO_END = {
    "sweep_s": "s",
    "cell_ms_p50": "ms",
    "cell_ms_tail": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
MIN_SWEEPS = 3
SETUP_PROBES = 6
TAIL_BEYOND = 10
DEADLINE_S = 150  # no sample starts later than this into a run
CHILD_TIMEOUT_S = 170
CAL_ROUNDS = 40_000
CAL_NOMINAL_S = 0.1  # about the loop's time on an idle 2-core x86-64 box


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", CLIFFSIG_PURE_PYTHON="1")
    # The warm-up sample writes the bytecode cache that the timed ones read,
    # as an installed package would have it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(suite: str, max_n: int, seed: int, *, trace=False, setup_only=False,
              run_start: float) -> dict:
    cmd = [sys.executable, str(SWEEP), "--suite", suite, "--max-n", str(max_n),
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, CHILD_TIMEOUT_S - (time.monotonic() - run_start))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"cells": None, "error": f"timed out after {timeout:.0f} s",
                "wall": time.monotonic() - t0}
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        return {"cells": None, "wall": wall,
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    out = json.loads(proc.stdout.splitlines()[-1])
    out["wall"] = wall
    out["setup_s"] = out["ready"] - t0
    return out


def calibrate() -> float:
    """Seconds for a fixed loop of the Fraction and dict work that the
    sweeps spend their time on."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[int, int] = {}
    for i in range(CAL_ROUNDS):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = i * 40503 & 255
        table[key] = table.get(key, 0) + (key >> 3 & 1)
    return time.perf_counter() - start


def sample(workload: str, seed: int, seconds: int, trace: bool, max_n: int):
    """Run the sweeps of one benchmark run; return (warm-up, probes, sweeps)."""
    suite = WORKLOADS[workload][0]
    start = time.monotonic()
    warm = run_child(suite, max_n, seed, setup_only=True, run_start=start)
    if "ready" not in warm:
        raise HarnessError(f"cannot import cliffsig from {ROOT / 'src'}: {warm['error']}")
    cal = [calibrate()]

    def timed(**kwargs) -> dict:
        s = run_child(suite, max_n, seed, run_start=start, **kwargs)
        cal.append(calibrate())
        s["speed"] = 2 * CAL_NOMINAL_S / (cal[-2] + cal[-1])
        return s

    probes = [] if trace else [timed(setup_only=True) for _ in range(SETUP_PROBES)]
    sweeps: list[dict] = []
    last_wall: dict[bool, float] = {}
    while True:
        traced = trace and len(sweeps) % 2 == 1
        s = timed(trace=traced)
        s["traced"] = traced
        sweeps.append(s)
        last_wall[traced] = s["wall"]
        upcoming = trace and not traced
        estimate = last_wall.get(upcoming, 2 * s["wall"])
        elapsed = time.monotonic() - start
        enough = len(sweeps) >= (2 if trace else MIN_SWEEPS)
        if elapsed + estimate > DEADLINE_S or (enough and elapsed + estimate > seconds):
            return warm, probes, sweeps


def tail_rank(cells: int) -> int:
    """0-based rank of the highest order statistic with TAIL_BEYOND cells
    above it (the maximum when there are too few cells)."""
    return max(0, cells - TAIL_BEYOND - 1)


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(probes, sweeps) -> dict[str, float]:
    done = [s for s in sweeps if s["cells"] is not None]
    # A cell's time is its median over the run's sweeps; the percentiles
    # are taken over cells, so their rank does not depend on the sweep count.
    per_cell: dict[str, list[float]] = {}
    for s in done:
        for c in s["cells"]:
            per_cell.setdefault(c["key"], []).append(c["seconds"] * 1000 * s["speed"])
    cell_ms = sorted(statistics.median(v) for v in per_cell.values())
    return {
        "sweep_s": median_or_zero(s["sweep_s"] * s["speed"] for s in done),
        "cell_ms_p50": median_or_zero(cell_ms),
        "cell_ms_tail": cell_ms[tail_rank(len(cell_ms))] if cell_ms else 0.0,
        "setup_s": median_or_zero(
            s["setup_s"] * s["speed"] for s in probes + sweeps if "setup_s" in s
        ),
        "peak_rss_mb": median_or_zero(s["rss_mb"] for s in done),
    }


def per_layer(sweeps) -> dict[str, float]:
    done = [s for s in sweeps if s["cells"] is not None]
    traced = [s for s in done if s["traced"]]
    plain = [s for s in done if not s["traced"]]
    out = {}
    for name, unit in tracer.metric_units().items():
        if unit == "count":  # exact, the same in every sweep
            out[name] = statistics.median_low([s["layers"][name] for s in traced] or [0])
        elif name != tracer.OVERHEAD:
            out[name] = median_or_zero(
                s["layers"][name] * (s["speed"] if unit == "s" else 1) for s in traced
            )
    base = median_or_zero(s["sweep_s"] * s["speed"] for s in plain)
    top = median_or_zero(s["sweep_s"] * s["speed"] for s in traced)
    out[tracer.OVERHEAD] = top / base if base else 0.0
    return out


def git_rev() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        return lines[1]
    return "unknown (not a git checkout)"


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 max_n: int | None, cpu: int | None) -> dict:
    suite, default_n = WORKLOADS[workload]
    max_n = default_n if max_n is None else max_n
    if not 0 <= max_n <= gate.FREEZE_MAX_N[suite]:
        raise HarnessError(f"--max-n for {suite} must be 0..{gate.FREEZE_MAX_N[suite]}, "
                           "the sizes with frozen verdicts")
    frozen = gate.load_verdicts()
    OUT.mkdir(parents=True, exist_ok=True)

    warm, probes, sweeps = sample(workload, seed, seconds, trace, max_n)
    expected = len(gate.expected_keys(suite, max_n))
    failed = 0
    problems: list[str] = []
    for s in sweeps:
        found = gate.check(suite, max_n, s["cells"], frozen)
        if s["cells"] is None:
            found.insert(0, f"sweep raised: {s['error']}")
        failed += min(expected, len(found))
        problems += found
    attempted = expected * len(sweeps)
    units = tracer.metric_units() if trace else END_TO_END
    values = per_layer(sweeps) if trace else end_to_end(probes, sweeps)
    absent = sorted({a for s in sweeps for a in s.get("absent", ())})

    provenance = {
        "workload": workload,
        "suite": suite,
        "max_n": max_n,
        "cells": expected,
        "seed": seed,
        "trace": int(trace),
        "sweeps": len(sweeps),
        "traced_sweeps": sum(s["traced"] for s in sweeps),
        "setup_samples": len(probes) + len(sweeps),
        "machine_speed": median_or_zero(s["speed"] for s in probes + sweeps),
        "raw_sweep_s": median_or_zero(s["sweep_s"] for s in sweeps if s["cells"] is not None),
        "tail_percentile": round(100 * (tail_rank(expected) + 1) / expected, 2),
        "git_rev": git_rev(),
        "python": warm["python"],
        "backend": warm["backend"],
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "env": {k: child_env()[k] for k in ("PYTHONHASHSEED", "CLIFFSIG_PURE_PYTHON")},
        "absent": absent,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({
        "provenance": provenance,
        "result": result,
        "problems": problems[:50],
        "samples": [{k: v for k, v in s.items() if k not in ("cells", "spans", "layers")}
                    for s in probes + sweeps],
    }, indent=1) + "\n")
    if trace:
        runs = [{"run": i, **s["spans"]} for i, s in enumerate(sweeps) if s.get("spans")]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(
            json.dumps({"workload": workload, "seed": seed, "runs": runs}))

    print_summary(provenance, result, sweeps, problems)
    return result


def print_summary(prov, result, sweeps, problems) -> None:
    print(f"{prov['workload']}: suite {prov['suite']}, max_n {prov['max_n']}, "
          f"{prov['cells']} cells, seed {prov['seed']}, {prov['sweeps']} sweeps; "
          f"raw sweep {prov['raw_sweep_s']:.4g} s at machine speed {prov['machine_speed']:.3f}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "cell_ms_tail":
            note = (f"  (p{prov['tail_percentile']}: {TAIL_BEYOND} of {prov['cells']} "
                    "cells beyond it)")
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'cell_fail_ratio':<48} {ratio:>14.6g} ratio  "
          f"({result['failed']} of {result['attempted']} cells)")
    if prov["trace"]:
        traced = [s["sweep_s"] * s["speed"] for s in sweeps
                  if s["traced"] and s["cells"] is not None]
        base = median_or_zero(traced)
        shares = {}
        for name, m in result["metrics"].items():
            layer, _, stat = name.rpartition(".")
            if base and stat in ("total_s", "self_s"):
                shares[f"{layer} {stat}"] = m["value"] / base
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:6]
        print("  share of traced sweep: " + ", ".join(f"{k} {v:.0%}" for k, v in top))
    for p in problems[:10]:
        print(f"  FAIL {p}")
    print("provenance " + json.dumps(prov))


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every sample it starts, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--max-n", type=int, help="override the workload's size (self-test)")
    args = ap.parse_args()
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    cpu = pin_to_one_cpu()
    try:
        for w in workloads:
            result = run_workload(w, args.seed, args.seconds, bool(args.trace), args.max_n, cpu)
            print(json.dumps(result), flush=True)
    except HarnessError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
