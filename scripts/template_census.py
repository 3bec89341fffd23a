"""Classify every small loopless template and tabulate the trichotomy.

Enumerates loopless digraphs on up to --max-m vertices (one
representative per isomorphism class), runs the classifier on each,
and reports how the census splits between rejected (has a sink),
ergodic, and non-ergodic templates.  For the ergodic ones the observed
reach-all thresholds are compared with the quadratic worst-case bound
for their strong component.
"""

import argparse
import sys
from itertools import permutations

from funcgraphs.digraphs import (
    Digraph, GraphShapeError, TemplateClass, classify)
from funcgraphs.homsolver import ergodic_solver_data


def wielandt_bound(m: int) -> int:
    """Wielandt's bound on the exponent of a primitive m-vertex digraph."""
    return m * m - 2 * m + 2


def loopless_census(m: int):
    """Edge sets of all loopless digraphs on m vertices, up to iso."""
    pairs = [(u, v) for u in range(m) for v in range(m) if u != v]
    perms = list(permutations(range(m)))
    seen = set()
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        canon = min(tuple(sorted((p[u], p[v]) for u, v in edges))
                    for p in perms)
        if canon not in seen:
            seen.add(canon)
            yield edges


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-m", type=int, default=4)
    args = ap.parse_args(argv)

    header = (f"{'m':>2} {'census':>7} {'sink':>6} {'ergodic':>8} "
              f"{'non-erg':>8} {'max_reach':>9} {'quad_bound':>10}")
    print(header)
    print("-" * len(header))
    for m in range(1, args.max_m + 1):
        counts = {"sink": 0, "ergodic": 0, "non": 0}
        total = 0
        max_reach = 0
        bound_for_max = 0
        for edges in loopless_census(m):
            total += 1
            h = Digraph(m, edges)
            try:
                cls = classify(h)
            except GraphShapeError:
                counts["sink"] += 1
                continue
            if cls is TemplateClass.ERGODIC_NO_LOOP:
                counts["ergodic"] += 1
                data = ergodic_solver_data(h)
                if data.reach_all > max_reach:
                    max_reach = data.reach_all
                    scc = h.scc().id_array(h.m)
                    bound_for_max = wielandt_bound(int(
                        (scc == scc[h.is_ergodic().vertex]).sum()))
            else:
                counts["non"] += 1
        print(f"{m:>2} {total:>7} {counts['sink']:>6} "
              f"{counts['ergodic']:>8} {counts['non']:>8} "
              f"{max_reach:>9} {bound_for_max:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
