"""Workload inputs and request lists for the funcgraphs CLI benchmark.

Every request seed and every input file derives from the workload seed.
Run as a script, this module is one set-up: it imports funcgraphs and
writes a workload's input files, which is what ``setup_s`` times.  It
also writes the machine-speed probe's samples (see probe.py):

    python3 perfbench/workloads.py <workload> <seed> <out_dir> <sizes_json>
"""

from __future__ import annotations

import json
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Looped template H_L: every total map has a homomorphism (constant 3),
# so the decision is always "present" and runs over every component.
TEMPLATE_LOOP = {"m": 4, "edges": [[0, 1], [1, 0], [0, 2], [2, 3], [3, 0],
                                   [3, 3]]}
# Ergodic loopless template H_E, solved on forests and paths.
TEMPLATE_ERGODIC = {"m": 4, "edges": [[0, 1], [1, 0], [0, 2], [2, 3],
                                      [3, 0]]}

SIZES = {
    "asdim_n": 20_000,
    "hom_n": 100_000,
    "maps": 1_500,
    "map_size": 25,
    "ruling_n": 1_000_000,
    "template_n": 2_000,
    "countdown_n": 400_000,
    "shift_length": 1_000,
    "shift_count": 500,
}

WORKLOADS = ("asdim", "hom", "local", "countdown")


def import_funcgraphs():
    """Import funcgraphs from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "funcgraphs", "__init__.py")):
        raise SystemExit(f"error: no funcgraphs sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import funcgraphs
    return funcgraphs


def seeds(workload: str, seed: int, count: int) -> list[int]:
    """Request seeds for one workload, derived from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(count)]


def random_maps(count: int, size: int, seed: int) -> list[int]:
    """``count`` disjoint uniformly random maps on ``size`` vertices each."""
    rng = random.Random(seed)
    return [b * size + rng.randrange(size)
            for b in range(count) for _ in range(size)]


def weak_components(succ: list[int]) -> int:
    """Number of weak components of a total successor map."""
    parent = list(range(len(succ)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = len(succ)
    for x, y in enumerate(succ):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
            count -= 1
    return count


def _dump(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def write_inputs(workload: str, seed: int, out_dir: str, sizes: dict) -> dict:
    """Write the workload's input files; return facts the checks need."""
    os.makedirs(out_dir, exist_ok=True)
    facts: dict = {}
    if workload in ("hom", "local"):
        _dump(os.path.join(out_dir, "template_loop.json"), TEMPLATE_LOOP)
        _dump(os.path.join(out_dir, "template_ergodic.json"),
              TEMPLATE_ERGODIC)
    if workload == "hom":
        succ = random_maps(sizes["maps"], sizes["map_size"],
                           seeds(workload, seed, 3)[2])
        _dump(os.path.join(out_dir, "maps.json"),
              {"n": len(succ), "succ": succ})
        facts["maps_components"] = weak_components(succ)
    if workload == "countdown":
        graphs = import_funcgraphs().graphs
        g = graphs.gen_random_forest(sizes["countdown_n"],
                                     seeds(workload, seed, 2)[1])
        _dump(os.path.join(out_dir, "forest.json"), g.to_json_dict())
    return facts


def requests(workload: str, seed: int, in_dir: str,
             sizes: dict) -> list[tuple[str, list[str]]]:
    """The workload's fixed request list as (kind, argv) pairs.

    ``in_dir`` is written into argv as given, and the CLI echoes file
    paths in its reports, so pass a path relative to the checkout root
    to keep stdout identical between checkouts.
    """
    def path(name: str) -> str:
        return os.path.join(in_dir, name)

    if workload == "asdim":
        (s,) = seeds(workload, seed, 1)
        common = ["--n", str(sizes["asdim_n"]), "--t", "1", "--t", "2",
                  "--seed", str(s)]
        return [("asdim.forest", ["asdim", "--kind", "forest", *common]),
                ("asdim.path", ["asdim", "--kind", "path", *common])]
    if workload == "hom":
        s_total, s_forest, _ = seeds(workload, seed, 3)
        n = str(sizes["hom_n"])
        return [
            ("hom.total", ["hom", "--template", path("template_loop.json"),
                           "--kind", "total", "--n", n,
                           "--seed", str(s_total)]),
            ("hom.maps", ["hom", "--template", path("template_loop.json"),
                          "--graph", path("maps.json")]),
            ("hom.forest", ["hom", "--template",
                            path("template_ergodic.json"), "--kind",
                            "forest", "--n", n, "--seed", str(s_forest)]),
        ]
    if workload == "local":
        s_ruling, s_template = seeds(workload, seed, 2)
        return [
            ("local.ruling", ["local", "-r", "4", "--n",
                              str(sizes["ruling_n"]), "--segments", "8",
                              "--seed", str(s_ruling)]),
            ("local.template", ["local", "--template",
                                path("template_ergodic.json"), "--n",
                                str(sizes["template_n"]), "--segments", "4",
                                "--seed", str(s_template)]),
        ]
    if workload == "countdown":
        s_shift, _ = seeds(workload, seed, 2)
        forest = path("forest.json")
        return [
            ("countdown.hit", ["hit", "--graph", forest, "-r", "8"]),
            ("countdown.drhom", ["drhom", "--graph", forest, "-r", "8"]),
            ("countdown.shift", ["shift", "-r", "2", "--length",
                                 str(sizes["shift_length"]), "--count",
                                 str(sizes["shift_count"]),
                                 "--seed", str(s_shift)]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    from probe import Probe
    name, seed_arg, out, sizes_arg = sys.argv[1:]
    with Probe() as probe:
        import_funcgraphs()
        found = write_inputs(name, int(seed_arg), out, json.loads(sizes_arg))
    _dump(os.path.join(out, "facts.json"), found)
    _dump(os.path.join(out, "probe.json"),
          {"busy": probe.busy, "samples": probe.samples})
