"""Hitting sets, homomorphisms, and distributed constructions on
functional graphs."""

from types import ModuleType as _Module

from .asdim import (
    CoverWitness, EquivalenceWitness, ParityColoring, WitnessParams,
    asdim_pipeline, cover_from_hitting, distance_parity_coloring,
    equivalence_from_coloring, verify_cover_witness, verify_eqrel_witness)
from .digraphs import (
    Digraph, ErgodicWitness, GraphShapeError, TemplateClass, classify,
    power_walk)
from .graphs import (
    FunctionalGraph, ball_class_counts, class_diameters, gen_path,
    gen_random_forest, gen_random_total, proximity_classes)
from .hitting import (
    HittingSet, check_labeling, greedy_hitting, hitting_from_cover,
    hitting_from_equivalence, hitting_from_labeling, is_forward_independent,
    is_hitting, labeling_from_hitting, periodic_hitting)
from .homsolver import (
    decide_hom, ergodic_solver_data, hom_violations, solve_ergodic,
    solve_loop)
from .local_sim import (
    PathNetwork, RoundTrace, RulingSetAlgorithm, TemplateSolverAlgorithm,
    make_path_network, run_local, verify_ruling)
from .partition import Partition
from .shift import (
    check_countdown_pairs, countdown_index, dense_window_index,
    gen_increasing_seq, sample_dominated, window_member)

__version__ = "0.1.0"

# every name imported above, and nothing else
__all__ = sorted(k for k, v in globals().items()
                 if not k.startswith("_") and not isinstance(v, _Module))
