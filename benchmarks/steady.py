"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 benchmarks/steady.py --workloads tour clinic longdoc --runs 10

For every workload it makes ``--runs`` runs per set, seed i in run i of
each set, and alternates the sets (A1 B1 A2 B2 ...). It prints each
metric's median and quartiles per set, the spread (quartile distance
over median) and whether the sets agree within the bounds of
BENCHMARK.json: every spread within its bound, and the two medians
apart by no more than the bound, in either direction. The two runs of
one seed must also leave manifests with identical sha256 hashes, and
every run must fail the same share of its operations. It also lists the
seeds on which a claim a run prints (the README tour's) fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    digest = next(line.split()[1] for line in lines if line.startswith("manifests "))
    failing_claims = [line.split()[2].rstrip(":") for line in lines if line.startswith("claim FAILS ")]
    return json.loads(lines[-1]), digest, failing_claims


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    seeds = range(args.first_seed, args.first_seed + args.runs)
    agree = True
    for workload in args.workloads:
        sets: tuple[list[dict], list[dict]] = ([], [])
        digests: dict[int, set[str]] = {}
        claims_failing: dict[str, set[int]] = {}
        for seed in seeds:
            for runs in sets:
                result, digest, failing = run_once(workload, seed, args.seconds)
                if not result["correct"] or result["failed"]:
                    print(f"{workload} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']}/{result['attempted']}")
                    agree = False
                runs.append(result)
                digests.setdefault(seed, set()).add(digest)
                for claim in failing:
                    claims_failing.setdefault(claim, set()).add(seed)
        same_hashes = all(len(d) == 1 for d in digests.values())
        fail_shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        agree &= same_hashes and len(fail_shares) == 1
        print(f"\n== {workload}: {args.runs} runs x 2 sets, "
              f"manifest hashes identical per seed: {same_hashes}, failed shares {sorted(fail_shares)}")
        for claim, failed_seeds in sorted(claims_failing.items()):
            print(f"claim {claim} fails at seeds {sorted(failed_seeds)}")
        print(f"{'metric':24s} {'bound':>6s}  " + "  ".join(
            f"{'set ' + s + ' q1 / median / q3':>36s} {'spread':>7s}" for s in "AB")
            + f"  {'B vs A':>7s}  verdict")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, meds, verdict = [], [], "ok"
            for runs in sets:
                values = [float(r["metrics"][name]["value"]) for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                cells.append(f"{q1:11.5g} / {med:11.5g} / {q3:11.5g} {spread:7.3f}")
                if spread > bound:
                    verdict = "SPREAD"
            shift = (meds[1] - meds[0]) / meds[0] if meds[0] else (0.0 if meds[1] == 0 else float("inf"))
            if abs(shift) > bound:
                verdict = "SHIFT"
            agree &= verdict == "ok"
            print(f"{name:24s} {bound:>6}  " + "  ".join(cells) + f"  {shift:+7.3f}  {verdict}")
    print(f"\nsets agree within bounds: {agree}")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
