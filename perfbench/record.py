"""Record the reference values that the output checks compare against.

    python3 perfbench/record.py --seeds 0-20 --green-seeds 0-199

Run from the repository root at the commit whose behaviour is the
reference.  For each seed it runs the cutoff workloads' CLI calls and keeps,
per (cell, start), the integer mix times, the curve length and the curve
sum; for the tree workload it keeps the seed-independent outputs once and
the Monte-Carlo Green entropy (value, stderr) per seed.  Existing entries of
``reference.json`` are kept and new seeds are added.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import REFERENCE_FILE, read_cutoff  # noqa: E402
from run import ROOT, cli_argv, spawn  # noqa: E402
from workloads import TREE_ARGS, TREE_D, TREE_INV, TREE_P, WORKLOADS  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record_cutoff(name: str, seed: int, work: Path) -> dict:
    w = WORKLOADS[name]
    out_dir = work / f"{name}-{seed}"
    out_dir.mkdir(parents=True)
    res = spawn([sys.executable, "-m", "anisowalk.cli"] + cli_argv(w.calls(seed, [])[0], out_dir),
                work / "logs")
    if res["rc"] != 0:
        raise SystemExit(f"{name} seed {seed}: exit {res['rc']}: {res['stderr']}")
    summary, curves = read_cutoff(out_dir)
    eps = summary["config"]["eps"]
    table = {}
    for cell in summary["cells"]:
        table[f"{cell['n']}/{cell['seed']}"] = {
            start: {"t_mix": [mix[str(e)] for e in eps],
                    "len": len(curves[(cell["n"], cell["seed"], int(start))]),
                    "sum": float(curves[(cell["n"], cell["seed"], int(start))].sum())}
            for start, mix in cell["t_mix_by_start"].items()
        }
    shutil.rmtree(out_dir)
    return table


def record_tree_exact(work: Path) -> dict:
    res = spawn([sys.executable, "-m", "anisowalk.cli"] + TREE_ARGS + ["--seed", "0"],
                work / "logs")
    out = json.loads(res["stdout"])
    return {"stopping_set": out["stopping_set"], "rho": out["rho"],
            "rho_prime": out["rho_prime"], "p_prime": out["p_prime"],
            "entropy_dp": out["entropy"]["dp"], "backbone": out["backbone"]}


def record_green(seeds: list[int]) -> dict:
    """Green entropy exactly as ``tree-calc`` computes it, per seed."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from anisowalk import AnisotropyVector, make_alphabet, tree_calculus
    p = AnisotropyVector(make_alphabet(TREE_D, TREE_INV), np.array(TREE_P))
    out = {}
    for seed in seeds:
        est = tree_calculus.entropy(p, method="green", budget=2000, walks=1000, seed=seed)
        out[str(seed)] = [est.value, est.stderr]
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=[])
    parser.add_argument("--green-seeds", type=seed_range, default=[])
    args = parser.parse_args()
    ref = json.loads(REFERENCE_FILE.read_text("utf-8")) if REFERENCE_FILE.exists() else {}
    for name in ("cutoff-srw", "cutoff-lift"):
        ref.setdefault(name, {"seeds": {}})
    ref.setdefault("tree-aniso", {"green": {}})
    work = ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if "exact" not in ref["tree-aniso"]:
            ref["tree-aniso"]["exact"] = record_tree_exact(work)
        for seed in args.seeds:
            for name in ("cutoff-srw", "cutoff-lift"):
                ref[name]["seeds"][str(seed)] = record_cutoff(name, seed, work)
            print(f"recorded cutoff seed {seed}", flush=True)
        ref["tree-aniso"]["green"].update(record_green(args.green_seeds))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
