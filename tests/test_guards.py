"""Input guards: each out-of-domain argument raises ValueError with a
message that names it."""

import numpy as np
import pytest

from funcgraphs.asdim import (
    EquivalenceWitness, WitnessParams, verify_eqrel_witness)
from funcgraphs.digraphs import Digraph
from funcgraphs.graphs import (
    FunctionalGraph, ball_class_counts, class_diameters, gen_path,
    proximity_classes)
from funcgraphs.hitting import hitting_from_cover, hitting_from_equivalence
from funcgraphs.homsolver import hom_violations
from funcgraphs.local_sim import (
    RulingSetAlgorithm, make_path_network, verify_ruling)
from funcgraphs.partition import Partition

PATH = gen_path(4)
CYCLE = FunctionalGraph([1, 2, 0])
ONE_CLASS = Partition(np.zeros(4, dtype=np.int64))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: PATH.interior_mask(-1), "horizon must be >= 0",
                 id="interior_mask"),
    pytest.param(lambda: PATH.ball(0, -1), "radius must be >= 0",
                 id="ball"),
    pytest.param(lambda: ball_class_counts(PATH, ONE_CLASS, -1),
                 "radius must be >= 0", id="ball_class_counts"),
    pytest.param(lambda: class_diameters(CYCLE, Partition([0, 0, 0])),
                 "class diameters require an acyclic graph",
                 id="class_diameters-cyclic"),
    pytest.param(lambda: proximity_classes(PATH, [0], -1),
                 "radius must be >= 0", id="proximity_classes"),
    pytest.param(lambda: hitting_from_cover(PATH, [0], 0),
                 "spacing must be >= 1", id="cover-spacing"),
    pytest.param(lambda: hitting_from_cover(CYCLE, [0], 1),
                 "cover extraction requires an acyclic graph",
                 id="cover-cyclic"),
    pytest.param(lambda: hitting_from_equivalence(PATH, ONE_CLASS, 0, 0),
                 "t must be >= 1 and d >= 0", id="equivalence-t"),
    pytest.param(lambda: hitting_from_equivalence(PATH, ONE_CLASS, 1, -1),
                 "t must be >= 1 and d >= 0", id="equivalence-d"),
    pytest.param(lambda: verify_eqrel_witness(PATH, EquivalenceWitness(
        WitnessParams(1), ONE_CLASS), d=-3),
                 "d must be >= 0", id="verify_eqrel_witness-d"),
    pytest.param(lambda: hitting_from_equivalence(CYCLE, ONE_CLASS, 1, 0),
                 "equivalence extraction requires an acyclic graph",
                 id="equivalence-cyclic"),
    pytest.param(lambda: hom_violations(PATH, [0, 0], Digraph(1, [(0, 0)])),
                 "labeling length must match the graph",
                 id="hom_violations"),
    pytest.param(lambda: PATH.jump([0, 0], [-1, 3]),
                 "jump needs step counts >= 0", id="jump-negative-steps"),
    pytest.param(lambda: PATH.jump([7], [0]),
                 r"jump needs vertices in \[0, n\)", id="jump-vertex-above"),
    pytest.param(lambda: PATH.jump([-2], [1]),
                 r"jump needs vertices in \[0, n\)", id="jump-vertex-below"),
    pytest.param(lambda: RulingSetAlgorithm(0), "spacing must be >= 1",
                 id="RulingSetAlgorithm"),
    pytest.param(lambda: verify_ruling(make_path_network(4), [False] * 3,
                                       1, 0),
                 "need spacing >= 1, gap_bound >= 0, n flags",
                 id="verify_ruling"),
    pytest.param(lambda: Partition(np.arange(5)).id_array(4),
                 "partition has elements >= 4", id="id_array"),
    pytest.param(lambda: Partition(np.array([0, 1, -1])).id_array(-1),
                 "n must be >= 0", id="id_array-negative"),
    pytest.param(lambda: Partition(np.array([0.5, 0.7])),
                 "class ids must be a 1-d integer array",
                 id="Partition-float"),
    pytest.param(lambda: Partition(np.array([True, False])),
                 "class ids must be a 1-d integer array", id="Partition-bool"),
    pytest.param(lambda: Partition(np.zeros((2, 2), dtype=np.int64)),
                 "class ids must be a 1-d integer array", id="Partition-2d"),
    pytest.param(lambda: Partition([0.5, 0.7]), "class ids must be integers",
                 id="Partition-float-list"),
    pytest.param(lambda: Digraph(0, []), "m must be >= 1", id="Digraph"),
])
def test_input_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
