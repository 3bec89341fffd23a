"""Hitting sets, homomorphisms, and distributed constructions on
functional graphs."""

from .asdim import (
    CoverWitness,
    EquivalenceWitness,
    ParityColoring,
    WitnessParams,
    asdim_pipeline,
    cover_from_hitting,
    distance_parity_coloring,
    equivalence_from_hitting,
    verify_cover_witness,
    verify_eqrel_witness,
)
from .digraphs import (
    Digraph,
    ErgodicWitness,
    GraphShapeError,
    TemplateClass,
    classify,
    countdown_digraph,
    power_walk,
    wielandt_bound,
)
from .graphs import (
    FunctionalGraph,
    class_diameters,
    gen_path,
    gen_random_forest,
    gen_random_total,
    proximity_classes,
)
from .hitting import (
    HittingSet,
    greedy_hitting,
    hitting_from_cover,
    hitting_from_equivalence,
    hitting_from_labeling,
    is_forward_independent,
    is_hitting,
    labeling_from_hitting,
    periodic_hitting,
)
from .homsolver import (
    decide_hom,
    ergodic_solver_data,
    hom_violations,
    retract_to_strong_components,
    solve_ergodic,
    solve_loop,
    verify_hom,
)
from .local_sim import (
    PathNetwork,
    RoundTrace,
    RulingSetAlgorithm,
    TemplateSolverAlgorithm,
    make_path_network,
    run_local,
    verify_ruling,
)
from .partition import Partition, UnionFind
from .shift import (
    check_countdown_pairs,
    countdown_index,
    dense_window_index,
    gen_increasing_seq,
    sample_dominated,
    shift_seq,
    window_member,
)

__version__ = "0.1.0"

__all__ = [
    "CoverWitness", "Digraph", "EquivalenceWitness", "ErgodicWitness",
    "FunctionalGraph", "GraphShapeError", "HittingSet", "ParityColoring",
    "Partition", "PathNetwork", "RoundTrace", "RulingSetAlgorithm",
    "TemplateClass", "TemplateSolverAlgorithm", "UnionFind", "WitnessParams",
    "asdim_pipeline", "check_countdown_pairs", "class_diameters", "classify",
    "countdown_digraph", "countdown_index", "cover_from_hitting",
    "decide_hom", "dense_window_index", "distance_parity_coloring",
    "equivalence_from_hitting", "ergodic_solver_data", "gen_increasing_seq",
    "gen_path", "gen_random_forest", "gen_random_total", "greedy_hitting",
    "hitting_from_cover", "hitting_from_equivalence", "hitting_from_labeling",
    "hom_violations", "is_forward_independent", "is_hitting",
    "labeling_from_hitting", "make_path_network",
    "periodic_hitting", "power_walk", "proximity_classes",
    "retract_to_strong_components", "run_local", "sample_dominated",
    "shift_seq", "solve_ergodic", "solve_loop", "verify_cover_witness",
    "verify_eqrel_witness", "verify_hom", "verify_ruling", "wielandt_bound",
    "window_member",
]
