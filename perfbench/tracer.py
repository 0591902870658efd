"""Child-process side of the benchmark.

    python3 tracer.py main [--spans FILE] -- <anisowalk CLI arguments>
        Calls ``anisowalk.cli.main`` in this process and prints one JSON line
        with its exit code and wall time.  With ``--spans`` the public
        functions of every anisowalk module are wrapped first, and the spans
        are written to FILE when the call returns.
    python3 tracer.py setup <workload> <seed> <dir>
        Builds the workload's inputs through the public constructors and
        prints the paths of the files written, as JSON.
    python3 tracer.py triad
        Single-threaded y <- y + a*x bandwidth on 128 MiB arrays.

Spans are recorded from outside the program: a wrapper around each public
function stores (name, start, end, parent span, counts) in memory.  Counts
come from arguments and return values only.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import pathlib
import sys
import time

sys.dont_write_bytecode = True

LAYERS = ("group_core", "schreier_graphs", "mixing_lab", "tree_calculus")
# methods wrapped on their defining class: kernel applies and the checks
# that run when a jump law or a word is constructed
CLASS_METHODS = (
    ("schreier_graphs", "ScalarKernel", ("apply_dist", "apply_fun")),
    ("schreier_graphs", "LiftKernel", ("apply_dist", "apply_fun")),
    ("schreier_graphs", "FiniteKernel", ("apply_adjoint_fun", "to_dense")),
    ("group_core", "AnisotropyVector", ("__post_init__",)),
    ("group_core", "ReducedWord", ("__post_init__",)),
)


class Spans:
    """Spans kept in memory as ``[name, start, end, parent, counts]``."""

    def __init__(self):
        self.records = []
        self.stack = []

    def call(self, name, fn, args, kwargs, counts=None):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.records))
        self.records.append(rec)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()
        if counts is not None:
            rec[4] = counts(args, kwargs, result)
        return result


# ---------------------------------------------------------------------------
# counts taken at each boundary, from arguments and results
# ---------------------------------------------------------------------------

def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments
    return arguments


def _apply_counts(args, kwargs, result):
    kern, vec = args[0], args[1]
    out = {"n": int(len(vec))}
    graph = getattr(kern, "graph", None) or getattr(kern, "lift", None)
    weights = getattr(kern, "weights", None)
    if graph is not None and weights is not None:
        if hasattr(weights, "masses"):
            active = int((weights.masses > 0).sum())
        else:
            active = sum(1 for b in weights.blocks if b.any())
        d = graph.perms.shape[0]
        # per active letter: its index array and one gathered pass over the
        # input; plus one pass writing the output.  Temporaries not counted.
        out["bytes"] = active * (graph.perms.nbytes // d + vec.nbytes) + result.nbytes
    return out


def _count_hooks(tree_calculus, mixing_lab):
    entropy_args = _bound(tree_calculus.entropy)
    backbone_args = _bound(tree_calculus.backbone_kernel)
    propagate_args = _bound(mixing_lab.propagate)
    tv_distance_args = _bound(mixing_lab.tv_distance)
    tv_curve_args = _bound(mixing_lab.tv_curve)
    mixing_time_args = _bound(mixing_lab.mixing_time)

    def entropy(args, kwargs, result):
        a = entropy_args(args, kwargs)
        return {"method": a["method"], "letters": int(a["walks"]) * int(a["budget"])}

    return {
        "schreier_graphs.apply_dist": _apply_counts,
        "schreier_graphs.apply_fun": _apply_counts,
        "schreier_graphs.apply_adjoint_fun": _apply_counts,
        "mixing_lab.tv_distance": lambda a, k, r: {
            "n": int(len(tv_distance_args(a, k)["stationary"]))},
        "mixing_lab.tv_curve": lambda a, k, r: {
            "steps": len(r) - 1, "n": tv_curve_args(a, k)["k"].n_states},
        "mixing_lab.propagate": lambda a, k, r: {
            "steps": int(propagate_args(a, k)["t"]), "n": propagate_args(a, k)["k"].n_states},
        "mixing_lab.mixing_time": lambda a, k, r: {
            "steps": int(r), "n": mixing_time_args(a, k)["k"].n_states},
        "mixing_lab.singular_radius_t": lambda a, k, r: {
            "t": r.t, "iterations": r.iterations, "converged": bool(r.converged),
            "value": float(r.value)},
        "tree_calculus.entropy": entropy,
        "tree_calculus.word_distribution": lambda a, k, r: {"words": len(r)},
        "tree_calculus.build_stopping_set": lambda a, k, r: {
            "members": r.size, "boundary": r.boundary_size},
        "tree_calculus.backbone_kernel": lambda a, k, r: {
            "members": backbone_args(a, k)["stopping"].size},
        "cli.write": lambda a, k, r: {"bytes": len(a[1].encode("utf-8"))},
    }


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------

def _wrap(spans, name, fn, hooks):
    counts = hooks.get(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = spans.call(name, next, (it,), {}, counts and
                                      (lambda a, k, r: counts(args, kwargs, r)))
                except StopIteration:
                    return
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return spans.call(name, fn, args, kwargs, counts)
    return wrapper


def install(spans: Spans) -> None:
    """Wrap every public function of each layer, wherever callers look it up:
    the module attribute and any ``from ... import`` binding in another
    anisowalk module.  Kernel methods and constructor checks are wrapped on
    their classes."""
    import importlib
    import anisowalk
    from anisowalk import cli, mixing_lab, tree_calculus
    modules = [importlib.import_module(f"anisowalk.{layer}") for layer in LAYERS]
    hooks = _count_hooks(tree_calculus, mixing_lab)
    holders = [anisowalk, cli] + modules
    for layer, module in zip(LAYERS, modules):
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__):
                continue
            wrapped = _wrap(spans, f"{layer}.{attr}", fn, hooks)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapped)
    for layer, cls_name, methods in CLASS_METHODS:
        cls = getattr(importlib.import_module(f"anisowalk.{layer}"), cls_name)
        for meth in methods:
            name = f"{layer}.{cls_name}" if meth.startswith("__") else f"{layer}.{meth}"
            setattr(cls, meth, _wrap(spans, name, vars(cls)[meth], hooks))
    write_text = pathlib.Path.write_text
    pathlib.Path.write_text = _wrap(spans, "cli.write", write_text, hooks)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def run_main(argv: list[str], spans_file: str | None) -> dict:
    from anisowalk import cli
    spans = None
    if spans_file:
        spans = Spans()
        install(spans)
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = spans.call("cli.main", cli.main, (argv,), {}) if spans else cli.main(argv)
    wall = time.perf_counter() - start
    if spans:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(spans.records, fh)
    return {"rc": rc, "wall_s": wall, "stdout": stdout.getvalue()}


def triad(mib: int = 128, reps: int = 10) -> dict:
    import numpy as np
    from scipy.linalg.blas import daxpy
    n = mib * 2**20 // 8
    x = np.full(n, 1.0)
    y = np.full(n, 2.0)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        y = daxpy(x, y, a=1e-3)
        best = min(best, time.perf_counter() - start)
    return {"GBps": 3 * 8 * n / best / 1e9, "array_MiB": mib, "arrays": 2}


def main(argv: list[str]) -> int:
    cmd = argv[0]
    if cmd == "main":
        spans_file = argv[2] if argv[1] == "--spans" else None
        result = run_main(argv[argv.index("--") + 1:], spans_file)
    elif cmd == "setup":
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
        from workloads import WORKLOADS
        result = {"files": WORKLOADS[argv[1]].setup(int(argv[2]), pathlib.Path(argv[3]))}
    elif cmd == "triad":
        result = triad()
    else:
        raise SystemExit(f"unknown command {cmd!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
