"""Sweep the two-set witness pipeline over scales and instance shapes.

For each (t, kind, n) cell the script builds a hitting set, derives the
cover and equivalence witnesses, and prints the worst interior class
diameter next to the documented bound 28t+7 and the sharper 28t+4
reported beside it.  The --periodic flag swaps the greedy
hitting set for a periodic one with wider orbit gaps, which exercises
the interval half of the coloring rule that greedy gaps never reach.
"""

import argparse
import sys
import time

from funcgraphs.asdim import (
    WitnessParams, distance_parity_coloring, equivalence_from_coloring,
    flip_dists, verify_cover_witness, verify_eqrel_witness)
from funcgraphs.cli import make_graph
from funcgraphs.hitting import greedy_hitting, periodic_hitting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--n", type=int, nargs="+", default=[2000, 10000])
    ap.add_argument("--kinds", nargs="+", default=["path", "forest"],
                    choices=["path", "forest"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--periodic", action="store_true",
                    help="use periodic hitting sets with stretched gaps")
    args = ap.parse_args(argv)

    header = (f"{'t':>2} {'kind':<7} {'n':>7} {'members':>8} "
              f"{'cover_max':>9} {'eq_max':>7} {'bound':>6} {'sharp':>6} "
              f"{'balls<=2':>8} {'secs':>6}")
    print(header)
    print("-" * len(header))
    worst_ok = True
    for t in args.t:
        params = WitnessParams(t)
        for kind in args.kinds:
            for n in args.n:
                g = make_graph(kind, n, args.seed)
                start = time.perf_counter()
                if args.periodic:
                    hs = periodic_hitting(g, params.spacing + params.stripe + 1)
                else:
                    hs = greedy_hitting(g, params.spacing)
                cover = distance_parity_coloring(g, hs.members, t)
                eq = equivalence_from_coloring(g, cover, flip_dists(g, cover))
                crep = verify_cover_witness(g, cover)
                erep = verify_eqrel_witness(g, eq, d=1)
                secs = time.perf_counter() - start
                ok = crep["ok"] and erep["ok"]
                worst_ok = worst_ok and ok
                print(f"{t:>2} {kind:<7} {n:>7} {len(hs.members):>8} "
                      f"{crep['max_diameter']:>9} {erep['max_diameter']:>7} "
                      f"{params.diameter_bound:>6} "
                      f"{params.sharp_diameter_bound:>6} "
                      f"{'yes' if erep['ball_violations'] == 0 else 'NO':>8} "
                      f"{secs:>6.2f}")
    print()
    print("all bounds hold" if worst_ok else "BOUND VIOLATIONS FOUND")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
