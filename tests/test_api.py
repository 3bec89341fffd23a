"""The package's public names, pinned so that any addition or removal
shows in a diff of this list."""

import funcgraphs

PUBLIC = [
    "CoverWitness", "Digraph", "EquivalenceWitness", "ErgodicWitness",
    "FunctionalGraph", "GraphShapeError", "HittingSet", "Partition",
    "PathNetwork", "RoundTrace", "RulingSetAlgorithm", "TemplateClass",
    "TemplateSolverAlgorithm", "WitnessParams", "asdim_pipeline",
    "ball_class_counts", "check_countdown_pairs", "check_labeling",
    "class_diameters", "classify", "countdown_index", "decide_hom",
    "dense_window_index", "distance_parity_coloring",
    "equivalence_from_coloring", "ergodic_solver_data", "gen_increasing_seq",
    "gen_path", "gen_random_forest", "gen_random_total", "greedy_hitting",
    "hitting_from_cover", "hitting_from_equivalence", "hitting_from_labeling",
    "hom_violations", "is_forward_independent", "is_hitting",
    "labeling_from_hitting", "make_path_network", "periodic_hitting",
    "power_walk", "proximity_classes", "run_local", "sample_dominated",
    "solve_ergodic", "solve_loop", "verify_cover_witness",
    "verify_eqrel_witness", "verify_ruling", "window_member",
]


def test_public_names_are_pinned():
    assert sorted(funcgraphs.__all__) == PUBLIC
    assert all(hasattr(funcgraphs, name) for name in PUBLIC)
