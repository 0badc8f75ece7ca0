"""Quick self-check of the benchmark at tiny input sizes.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs ``run.py --size tiny`` once
untraced and twice traced, and asserts that the result line has the agreed
keys, that every outputs check passed, that every named metric is printed
with its unit (in the result line and in the human-readable lines above
it), that no end-to-end metric reads 0, and that the count metrics repeat
exactly between the two traced runs at the same seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
# counts per unit and ratios of counts; they must repeat exactly
EXACT_UNITS = ("count", "calls/move", "calls/call")
EXACT_NAMES = ("pair_clear.kernel_frac",)


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check(result: dict, text: list[str], wanted: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["failed"] == 0, (label, text)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    names = [m["name"] for m in wanted]
    assert sorted(result["metrics"]) == sorted(names), (label, sorted(result["metrics"]))
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got["unit"])
        assert isinstance(got["value"], (int, float)), (label, m["name"])
        assert any(line.strip().split(" ", 1)[0] == m["name"] and f" {m['unit']}" in line
                   for line in text), (label, m["name"], "not printed with its unit")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in bench["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_NAMES or ".branch_frac." in m["name"]]
    for w in bench["workloads"]:
        name = w["name"]
        result, text = run(name, 0)
        check(result, text, bench["end_to_end"], f"{name} trace 0")
        assert all(v["value"] != 0 for v in result["metrics"].values()), (name, result["metrics"])
        first, text = run(name, 1)
        check(first, text, bench["per_layer"], f"{name} trace 1")
        second, _ = run(name, 1)
        for metric in exact:
            a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
            assert a == b, (name, metric, a, b, "count metric does not repeat")
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
