"""Correctness gate for one sweep's report.

Cell keys are checked against an enumeration made here, independently of
``cliffsig.verify``; each cell must pass and carry the verdict frozen in
``verdicts.json``: the class string for ``table1``/``table4``, the target
Cl(r,s) for ``sigchange``, and ``pass`` for ``core``.

``verdicts.json`` was frozen from the seed commit, whose cells all pass,
by running this file:  python3 perfbench/gate.py
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

VERDICTS = Path(__file__).resolve().with_name("verdicts.json")
FREEZE_MAX_N = {"table4": 6, "table1": 7, "sigchange": 4, "core": 6}
CORE_CELLS = ("generators", "associativity", "adjointness", "involutions", "decomposition")

_CLASS = re.compile(r" ~ ([^;]+)")
_TARGET = re.compile(r"-> (Cl\(\d+,\d+\))")


def expected_keys(suite: str, max_n: int) -> list[str]:
    keys = []
    for n in range(max_n + 1):
        for p in range(n + 1):
            q = n - p
            if suite == "table1":
                keys.append(f"{p},{q}")
            elif suite == "table4":
                keys += [f"{p},{q},{p0},{q0}" for p0 in range(p + 1) for q0 in range(q + 1)]
            elif suite == "sigchange":
                for mask in range(1 << n):
                    odd = ",".join(str(i + 1) for i in range(n) if mask >> i & 1)
                    keys.append(f"{p},{q},odd={odd}")
            elif suite == "core":
                keys += [f"{p},{q}:{c}" for c in CORE_CELLS]
            else:
                raise ValueError(f"no enumeration for suite {suite!r}")
    return keys


def expected_count(suite: str, max_n: int) -> int:
    """Closed-form cell counts, to cross-check expected_keys."""
    sigs = [(p, n - p) for n in range(max_n + 1) for p in range(n + 1)]
    return {
        "table1": len(sigs),
        "table4": sum((p + 1) * (q + 1) for p, q in sigs),
        "sigchange": sum((n + 1) * 2**n for n in range(max_n + 1)),
        "core": len(CORE_CELLS) * len(sigs),
    }[suite]


def verdict(suite: str, cell: dict) -> str | None:
    if suite == "core":
        return "pass" if cell["pass"] else "fail"
    m = (_TARGET if suite == "sigchange" else _CLASS).search(cell["detail"])
    return m.group(1).strip() if m else None


def load_verdicts() -> dict[str, dict[str, str]]:
    return json.loads(VERDICTS.read_text())


def check(suite: str, max_n: int, cells: list[dict] | None, frozen: dict) -> list[str]:
    """One problem per expected cell that is missing, failed, or whose
    verdict differs from the frozen one, plus one per unexpected or
    duplicate cell.  ``cells`` is None when the sweep raised."""
    got: dict[str, dict] = {}
    problems = []
    for cell in cells or ():
        if cell["key"] in got:
            problems.append(f"{cell['key']}: duplicate cell")
        got[cell["key"]] = cell
    for key in expected_keys(suite, max_n):
        cell = got.pop(key, None)
        if cell is None:
            problems.append(f"{key}: missing")
        elif not cell["pass"]:
            problems.append(f"{key}: failed: {cell['detail']}")
        else:
            want = frozen[suite].get(key)
            have = verdict(suite, cell)
            if want is None or have != want:
                problems.append(f"{key}: verdict {have!r}, frozen {want!r}")
    problems += [f"{key}: unexpected cell" for key in got]
    return problems


def freeze() -> None:
    sys.path.insert(0, str(VERDICTS.parents[1] / "src"))
    from cliffsig.verify import run_suite

    out = {}
    for suite, max_n in FREEZE_MAX_N.items():
        cells = run_suite(suite, max_n, 0).to_json_dict()["cells"]
        failed = [c["key"] for c in cells if not c["pass"]]
        if failed:
            raise SystemExit(f"{suite}: cells fail, nothing frozen: {failed}")
        out[suite] = {c["key"]: verdict(suite, c) for c in cells}
    VERDICTS.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    freeze()
