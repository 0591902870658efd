"""The benchmark's workloads: the CLI calls each one makes and the inputs it
builds from the seed.

Standard library only.  The harness imports this module, and it must stay
small, because a child's ``ru_maxrss`` includes the RSS of the process that
spawned it (the parent's memory hiwater mark is carried across ``exec``).
anisowalk and numpy are imported only inside ``setup``, which runs in a
child of its own.
"""

from __future__ import annotations

from pathlib import Path

SRW_SIZE = 262144  # ~10 MB working set, inside the 32 MiB L3
SRW_SEEDS = (1, 2)
LIFT_SIZE = 16384
LIFT_SEEDS = (1, 2)
SPECTRA_N = 65536
SPECTRA_GRAPHS = 5  # graphs per run: gen seeds seed .. seed+4
TREE_D, TREE_INV, TREE_P = 4, (2, 1, 4, 3), (.35, .35, .15, .15)
TREE_ARGS = ["tree-calc", "--d", "4", "--inv", "2,1,4,3", "--p", ".35,.35,.15,.15",
             "--k", "131072", "--entropy-walks", "1000"]


class Workload:
    """One benchmark workload.

    ``calls(seed, inputs)`` gives the CLI argument lists a run cycles
    through; an ``{out}`` entry is replaced by a fresh output directory.
    ``setup(seed, target)`` builds the inputs through the public
    constructors (run in a fresh process and timed as ``setup_s``) and
    returns the paths of any files it wrote.
    """

    name = ""
    writes_dir = False

    def calls(self, seed: int, inputs: list[str]) -> list[list[str]]:
        raise NotImplementedError

    def setup(self, seed: int, target: Path) -> list[str]:
        raise NotImplementedError


class CutoffSrw(Workload):
    name = "cutoff-srw"
    writes_dir = True

    def calls(self, seed, inputs):
        return [["cutoff", "--family", "schreier", "--d", "3", "--sizes", str(SRW_SIZE),
                 "--seeds", ",".join(map(str, SRW_SEEDS)), "--worst-of", "16",
                 "--threads", "1", "--seed", str(seed), "--out", "{out}"]]

    def cells(self):
        return [(SRW_SIZE, s) for s in SRW_SEEDS]

    def setup(self, seed, target):
        from anisowalk import identity_involution, make_alphabet, random_schreier
        alphabet = make_alphabet(3, identity_involution(3))
        for n, graph_seed in self.cells():
            random_schreier(alphabet, n, graph_seed)
        return []


class CutoffLift(CutoffSrw):
    name = "cutoff-lift"

    def calls(self, seed, inputs):
        return [["cutoff", "--family", "lift", "--sizes", str(LIFT_SIZE),
                 "--seeds", ",".join(map(str, LIFT_SEEDS)), "--threads", "1",
                 "--seed", str(seed), "--out", "{out}"]]

    def cells(self):
        return [(LIFT_SIZE, s) for s in LIFT_SEEDS]

    def setup(self, seed, target):
        from anisowalk import k4_base, random_lift
        base = k4_base()
        for n, graph_seed in self.cells():
            random_lift(base, n, graph_seed)
        return []


class SpectraSrw(Workload):
    name = "spectra-srw"

    def graph_seeds(self, seed):
        return [seed + j for j in range(SPECTRA_GRAPHS)]

    def calls(self, seed, inputs):
        return [["spectra", "--file", path, "--t", "1,2"] for path in inputs]

    def setup(self, seed, target):
        from anisowalk import identity_involution, make_alphabet, random_schreier, save_graph
        alphabet = make_alphabet(3, identity_involution(3))
        paths = []
        for s in self.graph_seeds(seed):
            path = target / f"srw_n{SPECTRA_N}_seed{s}.graph"
            save_graph(random_schreier(alphabet, SPECTRA_N, s), path)
            paths.append(str(path))
        return paths


class TreeAniso(Workload):
    name = "tree-aniso"

    def calls(self, seed, inputs):
        return [TREE_ARGS + ["--seed", str(seed)]]

    def setup(self, seed, target):
        import numpy as np
        from anisowalk import AnisotropyVector, make_alphabet
        AnisotropyVector(make_alphabet(TREE_D, TREE_INV), np.array(TREE_P))
        return []


WORKLOADS = {w.name: w for w in (CutoffSrw(), CutoffLift(), SpectraSrw(), TreeAniso())}
