"""Self-test of the benchmark at tiny sizes (max_n <= 3), under a minute:

    python3 perfbench/selftest.py

It checks that
  * every metric BENCHMARK.json names prints, with its unit, for every
    workload, with tracing off and on;
  * the gate's enumeration matches the closed-form cell counts, and the
    gate flags a corrupted frozen verdict, a missing cell and a failed one;
  * the span tree of each traced run is well formed: every parent precedes
    and contains its children, and every self time is >= 0;
  * the benchmark exits non-zero, printing no result, in a directory that
    holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

TINY_N = {"table4": 3, "table1": 3, "sigchange": 2, "core": 2}
SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", str(SEED), "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metrics(fail) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if want[0] != run.END_TO_END or want[1] != tracer.metric_units():
        fail("BENCHMARK.json metrics differ from the ones run.py and tracer.py report")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for workload, max_n in TINY_N.items():
        for trace in (0, 1):
            proc = bench("--workload", workload, "--trace", str(trace), "--max-n", str(max_n))
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                fail(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                fail(f"{where}: gate failed on the seed: {result}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                fail(f"{where}: metrics {got} != {want[trace]}")
            for name, unit in want[trace].items():
                value = result["metrics"].get(name, {}).get("value")
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    fail(f"{where}: {name} value {value!r}")
                if not any(line.split()[:1] == [name] and f" {unit}" in line for line in lines):
                    fail(f"{where}: summary has no line for {name} in {unit}")
            if trace:
                check_spans(fail, workload)


def check_spans(fail, workload: str) -> None:
    path = run.OUT / f"spans-{workload}-seed{SEED}.json"
    runs = json.loads(path.read_text())["runs"]
    if not runs:
        fail(f"{path.name}: no traced run")
    for r in runs:
        problems = tracer.tree_problems(r)
        roots = [i for i, p in enumerate(r["parent"]) if p < 0]
        if [r["names"][r["name"][i]] for i in roots] != [tracer.ROOT]:
            problems.append(f"{len(roots)} root spans, not one {tracer.ROOT} span")
        for p in problems[:5]:
            fail(f"{path.name} run {r['run']}: {p}")


def check_gate(fail) -> None:
    for suite in gate.FREEZE_MAX_N:
        for n in range(7):
            if len(gate.expected_keys(suite, n)) != gate.expected_count(suite, n):
                fail(f"{suite} n<={n}: enumeration does not match the closed-form count")
    sys.path.insert(0, str(ROOT / "src"))
    from cliffsig.verify import run_suite

    frozen = gate.load_verdicts()
    for suite, key, wrong in (
        ("table4", "1,1,1,0", "M(2,R)"),
        ("table1", "1,1", "H"),
        ("sigchange", "1,1,odd=2", "Cl(0,2)"),
    ):
        cells = run_suite(suite, 2, 0).to_json_dict()["cells"]
        if gate.check(suite, 2, cells, frozen):
            fail(f"{suite}: gate flags the seed's own cells")
        corrupted = copy.deepcopy(frozen)
        if corrupted[suite][key] == wrong:
            fail(f"{suite}: corruption {wrong!r} is the true verdict")
        corrupted[suite][key] = wrong
        found = gate.check(suite, 2, cells, corrupted)
        if len(found) != 1 or not found[0].startswith(f"{key}: verdict"):
            fail(f"{suite}: corrupted verdict for {key} not flagged alone: {found}")
        found = gate.check(suite, 2, cells[1:], frozen)
        if found != [f"{cells[0]['key']}: missing"]:
            fail(f"{suite}: dropped cell not flagged: {found}")
        broken = copy.deepcopy(cells)
        broken[-1]["pass"] = False
        found = gate.check(suite, 2, broken, frozen)
        if len(found) != 1 or "failed" not in found[0]:
            fail(f"{suite}: failed cell not flagged: {found}")
    if len(gate.check("core", 1, None, frozen)) != gate.expected_count("core", 1):
        fail("core: a raising sweep does not count every cell as failed")


def check_bare(fail) -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "table1", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    failures: list[str] = []
    for check in (check_gate, check_metrics, check_bare):
        check(failures.append)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
