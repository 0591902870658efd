"""Benchmark harness for anisowalk.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Closed loop: one client, one CLI child
process at a time, BLAS and OpenMP pinned to one thread.  With ``--trace 0``
the workload's CLI call is repeated until ``S`` seconds of child wall time
are measured, every child's outputs are checked, and the end-to-end metrics
are reported as medians.  With ``--trace 1`` the call runs once in-process
untraced and once with spans around every public function, and per-layer
metrics are computed from the spans.  The last line of standard output is
one JSON object; the lines before it give each metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SETUP_REPS = 3
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 150.0

BUILD = {"schreier_graphs." + f for f in
         ("random_schreier", "random_lift", "load_graph", "load_lift", "from_permutations")}
APPLY = {"schreier_graphs." + f for f in ("apply_dist", "apply_fun", "apply_adjoint_fun")}
PROPAGATION = {"mixing_lab." + f for f in ("tv_curve", "propagate", "mixing_time")}
RESOLVENT = {"tree_calculus." + f for f in
             ("solve_gamma", "rho", "rho_prime", "transform_p_to_pprime")}
LAYERS = ("cli", "group_core", "schreier_graphs", "mixing_lab", "tree_calculus")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    # NUMPY_MADVISE_HUGEPAGE=0: whether the kernel can back an array with
    # huge pages depends on other tenants, and it moved peak RSS by up to 30%
    env.update(PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", NUMPY_MADVISE_HUGEPAGE="0")
    return env


def spawn(cmd: list[str], log_dir: Path) -> dict:
    """Run one child to completion; wall time from start to reaping, and its
    rusage from ``wait4``.  A child past the timeout is killed and reaped."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout", log_dir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": out_path.read_text("utf-8", errors="replace"), "stdout_file": out_path,
        "stderr": err_path.read_text("utf-8", errors="replace"),
    }


def cli_argv(call: list[str], out_dir: Path) -> list[str]:
    return [str(out_dir) if a == "{out}" else a for a in call]


def check(workload, seed: int, runs: list[dict], work: Path) -> list[dict]:
    """Check the outputs of ``runs`` (each with ``call``, ``stdout`` and
    ``out_dir``) in one child process, after the timed children."""
    manifest = work / "checks.json"
    manifest.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                    "src": str(ROOT / "src"), "runs": runs}), "utf-8")
    res = spawn([sys.executable, str(HERE / "checks.py"), str(manifest)], work / "logs" / "checks")
    if res["rc"] != 0:
        raise RuntimeError(f"checker failed: {res['stderr'].strip()[-400:]}")
    results = json.loads(res["stdout"].splitlines()[-1])["results"]
    for run, result in zip(runs, results):
        if not result["ok"]:
            print(f"check failed: {workload.name} seed {seed} {run['out_dir']}: "
                  f"{result['error']}", file=sys.stderr)
    return results


def setup_inputs(workload, seed: int, work: Path) -> tuple[list[float], list[str]]:
    """Build the inputs SETUP_REPS times, each in a fresh process and a fresh
    directory; returns the wall times and the files of the first build."""
    walls, files = [], None
    for rep in range(SETUP_REPS):
        target = work / f"setup{rep}"
        target.mkdir(parents=True)
        res = spawn([sys.executable, str(HERE / "tracer.py"), "setup", workload.name,
                     str(seed), str(target)], work / "logs" / f"setup{rep}")
        if res["rc"] != 0:
            raise RuntimeError(f"setup failed: {res['stderr'].strip()[-400:]}")
        walls.append(res["wall_s"])
        files = files or json.loads(res["stdout"].splitlines()[-1])["files"]
    return walls, files


def run_plain(workload, seed: int, seconds: float, work: Path) -> dict:
    setup_walls, inputs = setup_inputs(workload, seed, work)
    calls = workload.calls(seed, inputs)
    walls, rss, runs, exit_ok = [], [], [], []
    while sum(walls) < seconds or len(walls) % len(calls):
        i = len(walls)
        call = calls[i % len(calls)]
        out_dir = work / f"out{i}"  # fresh and created untimed: see README
        if workload.writes_dir:
            out_dir.mkdir()
        res = spawn([sys.executable, "-m", "anisowalk.cli"] + cli_argv(call, out_dir),
                    work / "logs" / f"run{i}")
        walls.append(res["wall_s"])
        rss.append(res["peak_rss_mb"])
        exit_ok.append(res["rc"] == 0)
        if res["rc"] != 0:
            print(f"exit code {res['rc']}: {res['stderr'].strip()[-400:]}", file=sys.stderr)
        runs.append({"call": call, "stdout": str(res["stdout_file"]), "out_dir": str(out_dir)})
    checked = check(workload, seed, runs, work)
    failed = sum(not (e and c["ok"]) for e, c in zip(exit_ok, checked))
    attempted = len(walls)
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_walls),
        "ok_frac": (attempted - failed) / attempted,
    }
    samples = {"wall_s": len(walls), "peak_rss_mb": len(rss), "setup_s": len(setup_walls),
               "ok_frac": attempted}
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "samples": samples}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def in_process(argv: list[str], spans_file: Path | None, log_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "tracer.py"), "main"]
    if spans_file:
        cmd += ["--spans", str(spans_file)]
    res = spawn(cmd + ["--"] + argv, log_dir)
    inner = json.loads(res["stdout"].splitlines()[-1]) if res["rc"] == 0 else {}
    return {"rc": inner.get("rc", res["rc"]), "main_s": inner.get("wall_s", res["wall_s"]),
            "stdout": inner.get("stdout", ""), "cpu_s": res["cpu_s"], "stderr": res["stderr"]}


class SpanTree:
    """Durations, self times and ancestry of recorded spans."""

    def __init__(self, records: list):
        self.name = [r[0] for r in records]
        self.parent = [r[3] for r in records]
        self.info = [r[4] or {} for r in records]
        self.dur = [r[2] - r[1] for r in records]
        covered = [0.0] * len(records)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.dur[i]
        self.self_s = [d - c for d, c in zip(self.dur, covered)]

    def under(self, i: int, names: set) -> bool:
        """Whether some ancestor of span i is named in ``names``."""
        p = self.parent[i]
        while p >= 0:
            if self.name[p] in names:
                return True
            p = self.parent[p]
        return False

    def select(self, names: set, outermost: bool = True) -> list[int]:
        return [i for i, n in enumerate(self.name)
                if n in names and not (outermost and self.under(i, names))]

    def total(self, idx, key=None) -> float:
        if key is None:
            return sum(self.dur[i] for i in idx)
        return sum(self.info[i].get(key, 0) for i in idx)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(tree: SpanTree, sigma_ref: float | None) -> dict:
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s for s, n in zip(tree.self_s, tree.name)
                                   if n.split(".")[0] == layer)
    m["schreier_graphs.build_s"] = tree.total(tree.select(BUILD))

    applies = tree.select(APPLY)
    dist = [i for i in applies if tree.name[i] == "schreier_graphs.apply_dist"]
    fun = [i for i in applies if tree.name[i] != "schreier_graphs.apply_dist"]
    for prefix, idx in (("schreier_graphs.apply_dist", dist), ("schreier_graphs.apply_fun", fun)):
        m[f"{prefix}.calls"] = len(idx)
        m[f"{prefix}.ns_per_state"] = _per(tree.total(idx), tree.total(idx, "n"), 1e9)
    m["schreier_graphs.apply.bytes_per_state_computed"] = _per(
        tree.total(applies, "bytes"), tree.total(applies, "n"))
    m["schreier_graphs.apply.GBps_computed"] = _per(
        tree.total(applies, "bytes"), tree.total(applies), 1e-9)

    tv = tree.select({"mixing_lab.tv_distance"})
    m["mixing_lab.tv.calls"] = len(tv)
    m["mixing_lab.tv.ns_per_state"] = _per(tree.total(tv), tree.total(tv, "n"), 1e9)
    loops = tree.select(PROPAGATION)
    state_steps = sum(tree.info[i].get("steps", 0) * tree.info[i].get("n", 0) for i in loops)
    m["mixing_lab.propagate.state_steps"] = state_steps
    m["mixing_lab.propagate.ns_per_state_step"] = _per(tree.total(loops), state_steps, 1e9)
    m["mixing_lab.tv_curve.self_s"] = sum(
        tree.self_s[i] for i in tree.select({"mixing_lab.tv_curve"}, outermost=False))

    srt = tree.select({"mixing_lab.singular_radius_t"})
    matvecs = sum(1 for i in applies if tree.under(i, {"mixing_lab.singular_radius_t"}))
    m["mixing_lab.singular_radius_t.s"] = tree.total(srt)
    m["mixing_lab.singular_radius_t.iterations"] = tree.total(srt, "iterations")
    m["mixing_lab.singular_radius_t.matvecs"] = matvecs
    m["mixing_lab.singular_radius_t.ns_per_matvec"] = _per(tree.total(srt), matvecs, 1e9)
    m["mixing_lab.singular_radius_t.converged"] = sum(
        1 for i in srt if tree.info[i].get("converged"))
    errs = [(abs(tree.info[i]["value"] - sigma_ref), tree.info[i]["converged"])
            for i in srt if sigma_ref is not None and "value" in tree.info[i]]
    m["mixing_lab.singular_radius_t.abs_err"] = max((e for e, _ in errs), default=0.0)
    m["mixing_lab.singular_radius_t.abs_err_converged"] = max(
        (e for e, c in errs if c), default=0.0)

    m["tree_calculus.resolvent.s"] = tree.total(tree.select(RESOLVENT))
    dp = tree.select({"tree_calculus.word_distribution"})
    m["tree_calculus.word_dp.words"] = tree.total(dp, "words")
    m["tree_calculus.word_dp.peak_words"] = max((tree.info[i].get("words", 0) for i in dp), default=0)
    m["tree_calculus.word_dp.ns_per_word"] = _per(tree.total(dp), tree.total(dp, "words"), 1e9)
    green = [i for i in tree.select({"tree_calculus.entropy"})
             if tree.info[i].get("method") == "green"]
    m["tree_calculus.entropy_green.s"] = tree.total(green)
    m["tree_calculus.entropy_green.ns_per_letter"] = _per(
        tree.total(green), tree.total(green, "letters"), 1e9)
    ss = tree.select({"tree_calculus.build_stopping_set"})
    m["tree_calculus.stopping_set.s"] = tree.total(ss)
    m["tree_calculus.stopping_set.members"] = tree.total(ss, "members")
    m["tree_calculus.stopping_set.boundary"] = tree.total(ss, "boundary")
    m["tree_calculus.stopping_set.ns_per_member"] = _per(
        tree.total(ss), tree.total(ss, "members"), 1e9)
    bb = tree.select({"tree_calculus.backbone_kernel"})
    m["tree_calculus.backbone.s"] = tree.total(bb)
    m["tree_calculus.backbone.ns_per_member"] = _per(
        tree.total(bb), tree.total(bb, "members"), 1e9)

    writes = tree.select({"cli.write"})
    m["cli.files_written"] = len(writes)
    m["cli.bytes_written"] = tree.total(writes, "bytes")
    return m


def run_traced(workload, seed: int, work: Path) -> dict:
    _, inputs = setup_inputs(workload, seed, work)
    call = workload.calls(seed, inputs)[0]
    runs = {}
    for label, traced in (("plain", False), ("traced", True), ("rewrite", True)):
        if label == "rewrite" and workload.name != "cutoff-srw":
            continue
        # the rewrite run writes into the traced run's directory again
        out_dir = work / ("traced" if label == "rewrite" else label)
        out_dir.mkdir(exist_ok=True)
        spans_file = work / f"{label}.spans.json" if traced else None
        res = in_process(cli_argv(call, out_dir), spans_file, work / "logs" / label)
        if res["rc"] != 0:
            print(f"{label}: exit code {res['rc']}: {res['stderr'].strip()[-400:]}",
                  file=sys.stderr)
        if traced and spans_file.exists():
            res["spans"] = SpanTree(json.loads(spans_file.read_text("utf-8")))
        stdout_file = work / "logs" / label / "cli_stdout"
        stdout_file.write_text(res["stdout"], "utf-8")
        res["check"] = {"call": call, "stdout": str(stdout_file), "out_dir": str(out_dir)}
        res["traced"] = traced
        runs[label] = res
    checked = check(workload, seed, [r["check"] for r in runs.values()], work)
    for res, result in zip(runs.values(), checked):
        res["ok"] = res["rc"] == 0 and result["ok"] and (not res["traced"] or "spans" in res)
        res["info"] = result["info"]

    tree = runs["traced"].get("spans")
    sigma_ref = runs["traced"]["info"].get("reference")
    metrics = layer_metrics(tree, sigma_ref) if tree else {}
    if tree:
        # the layers' self times must add up to the traced cli.main wall time,
        # as timed by the tracer around the call
        total_self = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        main_s = runs["traced"]["main_s"]
        if tree.name[0] != "cli.main" or abs(total_self - main_s) > 1e-3 * main_s:
            print(f"layer self times sum to {total_self} s, cli.main took {main_s} s",
                  file=sys.stderr)
            runs["traced"]["ok"] = False
    if "rewrite" in runs and "spans" in runs["rewrite"]:
        rw = runs["rewrite"]["spans"]
        metrics["cli.rewrite_s"] = rw.total(rw.select({"cli.write"}))
    metrics["cli.cpu_s"] = runs["plain"]["cpu_s"]
    metrics["trace.overhead_frac"] = runs["traced"]["main_s"] / runs["plain"]["main_s"] - 1.0
    triad = spawn([sys.executable, str(HERE / "tracer.py"), "triad"], work / "logs" / "triad")
    if triad["rc"] == 0:
        metrics["machine.triad_GBps"] = json.loads(triad["stdout"].splitlines()[-1])["GBps"]
    failed = sum(not r["ok"] for r in runs.values())
    return {"attempted": len(runs), "failed": failed, "metrics": metrics,
            "samples": {k: 1 for k in metrics}}


def machine_record() -> dict:
    """CPU, caches and library versions of the machine running the benchmark."""
    import platform
    import numpy
    import scipy
    cpu = {}
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            cpu.setdefault(key.strip(), value.strip())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = (index / "level").read_text().strip(), (index / "type").read_text().strip()
        caches[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = \
            (index / "size").read_text().strip()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_model": cpu.get("model name"), "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS)}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "anisowalk" / "cli.py").is_file():
        print(f"no anisowalk sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = run_traced(workload, args.seed, work)
        else:
            result = run_plain(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    for entry in wanted:
        value = result["metrics"].get(entry["name"], 0.0)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{workload.name} {entry['name']} = {value:.6g} {entry['unit']}"
              f" (n={result['samples'].get(entry['name'], 0)})")
    if args.trace:
        print("machine " + json.dumps(machine_record()))
    else:
        print(f"{workload.name} fail_frac = {result['failed'] / result['attempted']:.6g}"
              f" ({result['failed']} of {result['attempted']})")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
