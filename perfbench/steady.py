"""Steadiness self-check of the benchmark, and the record of its numbers.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --seeds 10 --out perfbench/results/mine.json
    python3 perfbench/steady.py --workloads hankel-sweep --seeds 5

For each workload it makes one end-to-end run per seed (seeds 1, 2, ...),
one after another, and reports for every end-to-end metric the median and the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  Every spread, ``setup_s`` included, must stay within
the metric's ``bound`` in ``BENCHMARK.json`` and should stay below a third
of it.  It then makes two traced runs with seed 1 and requires the
deterministic counts of ``layers.DETERMINISTIC`` to repeat exactly.  The
exit code is 1 when any check fails.
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
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402

RUN_TIMEOUT_S = 900


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    seeds = list(range(1, args.seeds + 1))
    ok = True
    record = {"environment": run.environment(), "run_seconds": seconds,
              "seeds": seeds, "workloads": {}}

    for workload in args.workloads.split(","):
        results = [one_run(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "metrics": {},
        }
        print(f"{workload}: attempted {entry['attempted']}, failed "
              f"{entry['failed']}, correct {entry['correct']}")
        for r in results:
            if set(r["metrics"]) != set(e2e):
                print(f"  metric names differ from BENCHMARK.json: "
                      f"{sorted(r['metrics'])}")
                ok = False
        for name, spec in e2e.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = stats
            bound = spec["bound"]
            if stats["spread"] < bound / 3:
                verdict = "steady"
            elif stats["spread"] <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "UNSTEADY"
                ok = False
            print(f"  {name:18s} median {stats['median']:.6g} {spec['unit']}"
                  f"  spread {stats['spread']:.2%} (bound {bound:.0%}) {verdict}")

        traced = [one_run(workload, seeds[0], seconds, 1) for _ in range(2)]
        if set(traced[0]["metrics"]) != per_layer:
            print("  per-layer metric names differ from BENCHMARK.json")
            ok = False
        for name in layers.DETERMINISTIC:
            a, b = (t["metrics"][name]["value"] for t in traced)
            same = a == b
            ok = ok and same
            print(f"  traced {name:34s} {a:.6g} / {b:.6g} "
                  f"{'repeats' if same else 'DIFFERS'}")
        entry["traced"] = {name: m["value"]
                           for name, m in traced[0]["metrics"].items()}
        entry["traced_correct"] = all(t["correct"] for t in traced)
        record["workloads"][workload] = entry
        ok = ok and entry["correct"] and entry["traced_correct"]

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("steadiness check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
