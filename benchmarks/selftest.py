"""Quick self-test of the benchmark at toy sizes (about two minutes).

    python3 benchmarks/selftest.py

Checks BENCHMARK.json's keys, names, units and bounds; runs every
workload at toy size, untraced and traced, and checks that each metric
BENCHMARK.json names is emitted with its unit, that every output check
ran, and that the traced layer times plus ``unattributed_s`` add up to
the traced wall time; and checks that the benchmark refuses to run,
without printing a result, from a directory holding only BENCHMARK.json
and the benchmark's own files. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selftest"

CHECKS = {
    "confusion_single_equals_bulk", "distributions_well_formed", "score_recount",
    "skipgram_table", "manifest_hashes", "no_truncation", "kept_clear_gate",
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_spec(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)) or not all(NAME.match(n) for n in names):
        fail("metric or workload names are malformed or repeated")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"bad unit or direction on {m['name']}")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not all(0 < b <= 0.25 for b in bounds.values()):
        fail("bounds must lie in (0, 0.25]")
    if not 1 <= spec["run_seconds"] <= 60 or spec["paths"] != ["benchmarks"]:
        fail("run_seconds or paths out of range")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{workload} trace={trace}: no result line\n{proc.stderr[-2000:]}")
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1 \
            or not result["correct"] or result["failed"]:
        fail(f"{workload}: result keys {sorted(result)}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        fail(f"{workload} trace={trace}: metrics differ by {set(got) ^ {m['name'] for m in wanted}}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"] or not isinstance(got[m["name"]]["value"], (int, float)):
            fail(f"{workload}: metric {m['name']} emitted as {got[m['name']]}")
    ran = {line.split()[2].rstrip(":") for line in lines if line.startswith("check ")}
    if not CHECKS <= ran:
        fail(f"{workload}: output checks that ran: {sorted(ran)}")
    if trace:
        saved = json.loads((ROOT / "benchmarks" / "out" / workload / "trace.json").read_text())
        if abs(sum(saved["layers"].values()) - saved["wall_s"]) > 1e-9 * max(1.0, saved["wall_s"]):
            fail(f"{workload}: layer times do not add up to the traced wall time")
    print(f"ok {workload} trace={trace}: {len(got)} metrics, checks {sorted(ran)}, "
          f"correct={result['correct']}")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail, printing no result."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    for path in HERE.glob("*.*"):
        if path.is_file():
            shutil.copy(path, SCRATCH / "benchmarks")
    proc = run(SCRATCH, "tour", 0)
    shutil.rmtree(SCRATCH)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark ran without the program's sources")
    print("ok bare directory: exit code", proc.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok BENCHMARK.json")
    check_bare_directory()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
