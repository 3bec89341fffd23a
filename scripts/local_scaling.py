"""Round counts and wall time of the distributed ruling set as n grows.

The schedule length is fixed in advance from n alone, so the table
makes the iterated-logarithm flatness visible: rounds stay put while n
spans three orders of magnitude.  Every run is re-verified by the
centralized independence and hitting checks, and the script exits 1
unless all of them pass.
"""

import argparse
import sys
import time
from types import SimpleNamespace

from funcgraphs.local_sim import (
    RulingSetAlgorithm, make_path_network, run_local, verify_ruling)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spacing", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[10**3, 10**4, 10**5, 10**6])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--engine", default="auto", choices=["auto", "reference"],
                    help="reference steps every node, as on any wiring")
    args = ap.parse_args(argv)

    header = (f"{'r':>3} {'n':>9} {'rounds':>7} {'members':>9} "
              f"{'verified':>9} {'engine':>9} {'secs':>7}")
    print(header)
    print("-" * len(header))
    all_ok = True
    for r in args.spacing:
        alg = RulingSetAlgorithm(r)
        if args.engine == "reference":  # hide vector_outputs from run_local
            alg = SimpleNamespace(total_rounds=alg.total_rounds, boot=alg.boot,
                                  step=alg.step, finish=alg.finish,
                                  gap_bound=alg.gap_bound)
        base_rounds = None
        for n in args.sizes:
            net = make_path_network(n, seed=args.seed)
            start = time.perf_counter()
            trace = run_local(alg, net)
            secs = time.perf_counter() - start
            check = verify_ruling(net, trace.outputs, r, alg.gap_bound())
            all_ok = all_ok and check["ok"]
            if base_rounds is None:
                base_rounds = trace.rounds
            print(f"{r:>3} {n:>9} {trace.rounds:>7} {check['members']:>9} "
                  f"{'yes' if check['ok'] else 'NO':>9} {trace.engine:>9} "
                  f"{secs:>7.2f}")
        drift = trace.rounds - base_rounds
        print(f"    rounds drift over the sweep: {drift}")
    print()
    print("all runs verified" if all_ok else "VERIFICATION FAILURES")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
