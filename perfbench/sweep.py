"""Run the benchmark over several seeds and report how far each end-to-end
metric spreads.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--out FILE]

For each workload and seed it runs ``run.py --trace 0`` for the
``run_seconds`` of BENCHMARK.json, then prints, per metric, the median and
the distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound.  It
also runs ``--trace 1`` once per workload, on the first seed.  With
``--out`` the runs, the spreads, the traced metrics and the machine record
are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from record import seed_range  # noqa: E402
from run import ROOT, load_spec, machine_record  # noqa: E402


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"machine": machine_record(), "run_seconds": spec["run_seconds"],
              "seeds": args.seeds, "workloads": {}}
    ok = True

    def bench(name, seed, trace):
        nonlocal ok
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(f"{name} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
        ok &= result["correct"]
        return result

    for name in names:
        runs = []
        for seed in args.seeds:
            result = bench(name, seed, 0)
            runs.append({"seed": seed, "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]] for r in runs]
            summary[metric["name"]] = {"median": statistics.median(values),
                                       "spread": spread(values), "bound": metric["bound"]}
            print(f"{name:12s} {metric['name']:12s} median {statistics.median(values):.5g} "
                  f"spread {spread(values):.4f} bound {metric['bound']}", flush=True)
        traced = bench(name, args.seeds[0], 1)
        report["workloads"][name] = {
            "runs": runs, "summary": summary, "traced_seed": args.seeds[0],
            "traced": {k: v["value"] for k, v in traced["metrics"].items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
