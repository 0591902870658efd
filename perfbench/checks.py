"""Output checks for the benchmark's CLI runs, and the references they use.

    python3 checks.py MANIFEST.json

The manifest names a workload, a seed and the runs to check, each with its
CLI call, a file holding its standard output and its output directory.
The result is one JSON line, ``{"results": [{"ok", "error", "info"}, ...]}``,
in manifest order.  The harness runs this in its own process after the timed
children, so references are computed once per run and outside the timing.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SPECTRA_N, WORKLOADS  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"

# Tolerances of the output checks.
CURVE_TOL = 1e-9        # max |TV - reference TV| at any step
CURVE_SUM_TOL = 1e-8    # |sum of a TV curve - recorded sum|
MONOTONE_TOL = 1e-12    # TV may rise by at most this between steps
SIGMA_TOL = 1e-3        # |sigma_t - eigsh reference|; power iteration stops at 5000 steps
TREE_ABS_TOL = 1e-10    # rho, rho_prime, p_prime, dp entropy
TREE_REL_TOL = 1e-9     # backbone mean_exit and max_q
GREEN_SIGMAS = 3.0      # green entropy vs the recorded value of the same seed
GREEN_SIGMAS_POOLED = 4.0  # vs the mean of recorded seeds, for unrecorded seeds


class CheckFailed(Exception):
    """An output of the program is wrong or missing."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# cutoff-srw and cutoff-lift
# ---------------------------------------------------------------------------

def _strip_comments(text: str) -> str:
    return "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))


def read_cutoff(out_dir: Path) -> tuple[dict, dict]:
    """The parsed summary and ``{(n, graph_seed, start): tv array}``."""
    summary = json.loads(_strip_comments((out_dir / "summary.json").read_text("utf-8")))
    curves = {}
    for cell in summary["cells"]:
        for start in cell["t_mix_by_start"]:
            path = out_dir / f"curve_n{cell['n']}_seed{cell['seed']}_x{start}.csv"
            lines = _strip_comments(path.read_text("utf-8")).split()
            _require(lines[0] == "t,tv", f"{path.name}: bad column header")
            ts, tvs = zip(*(line.split(",") for line in lines[1:]))
            _require(list(map(int, ts)) == list(range(len(ts))), f"{path.name}: bad t column")
            curves[(cell["n"], cell["seed"], int(start))] = np.array(tvs, dtype=float)
    return summary, curves


def _first_below(tvs: np.ndarray, eps: float):
    idx = np.flatnonzero(tvs < eps)
    return int(idx[0]) if len(idx) else None


def check_cutoff(name: str, seed: int, call: list, stdout: str, out_dir: Path, refs) -> dict:
    summary, curves = read_cutoff(out_dir)
    cells = summary["cells"]
    _require([(c["n"], c["seed"]) for c in cells] == WORKLOADS[name].cells(),
             f"cells {[(c['n'], c['seed']) for c in cells]}")
    files = sorted(p.name for p in out_dir.iterdir())
    _require(len(files) == 1 + len(curves), f"{len(files)} files for {len(curves)} curves")
    eps_list = summary["config"]["eps"]
    recorded = refs.cutoff(name, seed)
    for cell in cells:
        key = f"{cell['n']}/{cell['seed']}"
        worst = {}
        for start, mix in cell["t_mix_by_start"].items():
            tvs = curves[(cell["n"], cell["seed"], int(start))]
            _require(np.all(tvs >= -MONOTONE_TOL) and np.all(tvs <= 1.0 + MONOTONE_TOL),
                     f"{key} x{start}: TV outside [0, 1]")
            _require(np.all(np.diff(tvs) <= MONOTONE_TOL), f"{key} x{start}: TV increases")
            for eps in eps_list:
                t = _first_below(tvs, eps)
                _require(mix[str(eps)] == t,
                         f"{key} x{start}: t_mix({eps}) = {mix[str(eps)]}, curve says {t}")
                worst[eps] = max(worst.get(eps, -1), -1 if t is None else t)
            if recorded is not None:
                rec = recorded[key].get(start)
                _require(rec is not None, f"{key}: start {start} not in the recorded starts")
                _require([mix[str(e)] for e in eps_list] == rec["t_mix"],
                         f"{key} x{start}: mix times {mix} differ from recorded {rec['t_mix']}")
                _require(len(tvs) == rec["len"], f"{key} x{start}: curve length {len(tvs)}")
                _require(abs(float(tvs.sum()) - rec["sum"]) <= CURVE_SUM_TOL,
                         f"{key} x{start}: curve sum {tvs.sum()} vs recorded {rec['sum']}")
        if recorded is not None:
            _require(sorted(cell["t_mix_by_start"]) == sorted(recorded[key]),
                     f"{key}: starts differ from the recorded starts")
        for eps in eps_list:
            want = None if worst[eps] < 0 else worst[eps]
            _require(cell["t_mix_worst"][str(eps)] == want, f"{key}: t_mix_worst({eps})")
        # independent propagation for start 0 and the slowest start
        slowest = max(cell["t_mix_by_start"],
                      key=lambda s: (cell["t_mix_by_start"][s][str(min(eps_list))] or 0, s))
        for start in sorted({"0", slowest}):
            tvs = curves[(cell["n"], cell["seed"], int(start))]
            ref = refs.tv_curve(name, cell["n"], cell["seed"], int(start), len(tvs) - 1)
            _require(float(np.max(np.abs(tvs - ref))) <= CURVE_TOL,
                     f"{key} x{start}: TV differs from the CSR reference by "
                     f"{float(np.max(np.abs(tvs - ref))):.2e}")
    return {}


def srw_matrix(n: int, graph_seed: int):
    """Transposed SRW kernel as CSR, so that ``v_{t+1} = M @ v_t``, and pi."""
    import scipy.sparse as sp
    from anisowalk import identity_involution, make_alphabet, random_schreier
    graph = random_schreier(make_alphabet(3, identity_involution(3)), n, graph_seed)
    d = graph.alphabet.d
    rows = np.tile(np.arange(n), d)
    mat = sp.csr_matrix((np.full(n * d, 1.0 / d), (rows, graph.perms.reshape(-1))),
                        shape=(n, n))
    return mat, np.full(n, 1.0 / n)


def lift_matrix(n: int, graph_seed: int):
    """Transposed lift kernel as CSR, and pi.  State (x, u) has index
    ``x * r + u``; letter i moves mass from (perm_i(x), u) to (x, u') with
    weight ``block_i[u, u']``."""
    import scipy.sparse as sp
    from anisowalk import k4_base, random_lift, srw_weights
    base = k4_base()
    lift = random_lift(base, n, graph_seed)
    weights = srw_weights(base)
    r = base.r
    rows, cols, vals = [], [], []
    x = np.arange(n)
    for i, block in enumerate(weights.blocks):
        for u, u2 in zip(*np.nonzero(block)):
            rows.append(x * r + u2)
            cols.append(lift.perms[i] * r + u)
            vals.append(np.full(n, block[u, u2]))
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n * r, n * r))
    return mat, np.tile(weights.mu / n, n)


# ---------------------------------------------------------------------------
# spectra-srw
# ---------------------------------------------------------------------------

def check_spectra(name: str, seed: int, call: list, stdout: str, out_dir: Path, refs) -> dict:
    graph_file = call[call.index("--file") + 1]
    ref = refs.sigma(graph_file)
    out = json.loads(stdout)
    _require(out.get("n_states") == SPECTRA_N, f"n_states {out.get('n_states')}")
    for t in ("1", "2"):
        value, converged = out["sigma_t"][t]["value"], out["sigma_t"][t]["converged"]
        _require(isinstance(converged, bool), f"sigma_{t}.converged is not a bool")
        _require(abs(value - ref) <= SIGMA_TOL,
                 f"sigma_{t} = {value} is {abs(value - ref):.2e} from the eigsh value {ref}")
    return {"reference": ref}


def read_schreier_csr(path: str):
    """The kernel of a Schreier graph file as CSR, parsed here rather than by
    anisowalk: ``P[x, perm_i(x)]`` gets ``1/d`` from each of the d letters."""
    import scipy.sparse as sp
    lines = [ln for ln in Path(path).read_text("utf-8").splitlines()
             if ln.strip() and not ln.startswith("#")]
    header = dict(tok.split("=") for tok in lines[0].split()[1:])
    n, d = int(header["n"]), int(header["d"])
    perms = np.array([ln.split(":")[1].split() for ln in lines[1:1 + d]], dtype=np.int64) - 1
    _require(perms.shape == (d, n), f"{path}: perm block has shape {perms.shape}")
    rows = np.tile(np.arange(n), d)
    return sp.csr_matrix((np.full(n * d, 1.0 / d), (rows, perms.reshape(-1))), shape=(n, n))


def sigma_reference(path: str) -> float:
    """Largest nontrivial |eigenvalue| by ARPACK on the deflated kernel.

    The SRW kernel of an identity-involution graph is symmetric, so every
    t-th singular radius equals this value; symmetry is checked.
    """
    import scipy.sparse.linalg as spla
    mat = read_schreier_csr(path)
    _require(abs(mat - mat.T).max() == 0.0, f"{path}: kernel is not symmetric")
    n = mat.shape[0]
    op = spla.LinearOperator((n, n), matvec=lambda f: mat @ f - f.mean(), dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    vals = spla.eigsh(op, k=1, which="LM", v0=v0, tol=1e-10, return_eigenvectors=False)
    return float(abs(vals[0]))


# ---------------------------------------------------------------------------
# tree-aniso
# ---------------------------------------------------------------------------

def check_tree(name: str, seed: int, call: list, stdout: str, out_dir: Path, refs) -> dict:
    out = json.loads(stdout)
    exact = refs.data["tree-aniso"]["exact"]
    ss = out["stopping_set"]
    for key in ("k", "size", "boundary_size", "diameter"):
        _require(ss[key] == exact["stopping_set"][key],
                 f"stopping_set.{key} = {ss[key]}, expected {exact['stopping_set'][key]}")
    for key in ("rho", "rho_prime"):
        _require(abs(out[key] - exact[key]) <= TREE_ABS_TOL, f"{key} = {out[key]}")
    _require(len(out["p_prime"]) == len(exact["p_prime"])
             and max(abs(a - b) for a, b in zip(out["p_prime"], exact["p_prime"]))
             <= TREE_ABS_TOL, f"p_prime = {out['p_prime']}")
    _require(abs(out["entropy"]["dp"] - exact["entropy_dp"]) <= TREE_ABS_TOL,
             f"dp entropy = {out['entropy']['dp']}")
    for key in ("mean_exit", "max_q"):
        got, want = out["backbone"][key], exact["backbone"][key]
        _require(abs(got - want) <= TREE_REL_TOL * abs(want), f"backbone.{key} = {got}")
    green, stderr = out["entropy"]["green"], out["entropy"]["stderr"]
    _require(stderr > 0, "green entropy stderr is not positive")
    ref_value, ref_stderr, sigmas = refs.green(seed)
    limit = sigmas * math.hypot(stderr, ref_stderr)
    _require(abs(green - ref_value) <= limit,
             f"green entropy {green} is {abs(green - ref_value):.2e} from "
             f"{ref_value} (limit {limit:.2e})")
    return {}


# ---------------------------------------------------------------------------
# references: recorded values and independent computations, cached per run
# ---------------------------------------------------------------------------

class References:
    def __init__(self):
        self.data = json.loads(REFERENCE_FILE.read_text("utf-8"))
        self._matrix_key, self._matrix = None, None
        self._sigma = {}

    def cutoff(self, workload: str, seed: int):
        """Recorded per-curve values for this seed, or None if not recorded."""
        return self.data[workload]["seeds"].get(str(seed))

    def green(self, seed: int) -> tuple[float, float, float]:
        """(value, stderr, sigmas) to compare this seed's green entropy with."""
        table = self.data["tree-aniso"]["green"]
        if str(seed) in table:
            value, stderr = table[str(seed)]
            return value, stderr, GREEN_SIGMAS
        values = np.array([v for v, _ in table.values()])
        return (float(values.mean()), float(values.std(ddof=1) / math.sqrt(len(values))),
                GREEN_SIGMAS_POOLED)

    def tv_curve(self, workload: str, n: int, graph_seed: int, start: int, steps: int):
        key = (workload, n, graph_seed)
        if key != self._matrix_key:
            build = srw_matrix if workload == "cutoff-srw" else lift_matrix
            self._matrix_key, self._matrix = key, build(n, graph_seed)
        mat, pi = self._matrix
        v = np.zeros(len(pi))
        v[start] = 1.0
        out = [0.5 * float(np.abs(v - pi).sum())]
        for _ in range(steps):
            v = mat @ v
            out.append(0.5 * float(np.abs(v - pi).sum()))
        return np.array(out)

    def sigma(self, graph_file: str) -> float:
        if graph_file not in self._sigma:
            self._sigma[graph_file] = sigma_reference(graph_file)
        return self._sigma[graph_file]


CHECKS = {
    "cutoff-srw": check_cutoff,
    "cutoff-lift": check_cutoff,
    "spectra-srw": check_spectra,
    "tree-aniso": check_tree,
}


def check_run(name: str, seed: int, run: dict, refs: References) -> dict:
    try:
        stdout = Path(run["stdout"]).read_text("utf-8")
        info = CHECKS[name](name, seed, run["call"], stdout, Path(run["out_dir"]), refs)
    except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "info": {}}
    return {"ok": True, "error": None, "info": info}


def main(argv: list[str]) -> int:
    manifest = json.loads(Path(argv[0]).read_text("utf-8"))
    sys.path.insert(0, manifest["src"])  # anisowalk, for the cutoff references
    refs = References()
    results = [check_run(manifest["workload"], manifest["seed"], run, refs)
               for run in manifest["runs"]]
    print(json.dumps({"results": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
