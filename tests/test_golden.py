"""Golden CLI outputs: sha256 of stdout for small fixed-seed runs.

The digests pin the exact reports (labels, members, verifier counts) so
a refactor that changes any byte of them fails here.  Input files are
written into a temporary working directory and named by relative path,
because reports echo the paths they were given.
"""

import hashlib
import json
import random

import pytest

from funcgraphs.cli import main

LOOP = {"m": 4, "edges": [[0, 1], [1, 0], [0, 2], [2, 3], [3, 0], [3, 3]]}
ERGODIC = {"m": 4, "edges": [[0, 1], [1, 0], [0, 2], [2, 3], [3, 0]]}


def small_maps(count: int, size: int, seed: int) -> dict:
    """``count`` disjoint random total maps on ``size`` vertices each."""
    rng = random.Random(seed)
    succ = [b * size + rng.randrange(size)
            for b in range(count) for _ in range(size)]
    return {"n": len(succ), "succ": succ}


GOLDEN = {
    "hit-forest": (
        ["hit", "--kind", "forest", "--n", "3000", "--seed", "11", "-r", "5"],
        "0a41544860a8af74598ece1f562ab7935dc7f721b1a4ec2953ac1964e9dafe27",
    ),
    "drhom-forest": (
        ["drhom", "--kind", "forest", "--n", "3000", "--seed", "12",
         "-r", "4"],
        "ba445f032ee985f921e57a39a604de17a69d2c02e7a1a388c87b2cd2ed31796c",
    ),
    "asdim-forest": (
        ["asdim", "--kind", "forest", "--n", "1500", "--seed", "13",
         "--t", "1", "--t", "2"],
        "e331e22e11e1e01cca17eb28161f56b45597ca7a49911acd9d6d6346ecb7d6bc",
    ),
    "asdim-path": (
        ["asdim", "--kind", "path", "--n", "1500", "--t", "1", "--t", "2"],
        "75996b27ed2c1c203221ae9b75ac09906fc1194d7357702402dcf0940b603588",
    ),
    "hom-total": (
        ["hom", "--template", "loop.json", "--kind", "total", "--n", "3000",
         "--seed", "14"],
        "04b3ee4f55d4db99ad40f465b41f51d54c3583b67f6d99aa59e672af8f2947cf",
    ),
    "hom-forest": (
        ["hom", "--template", "ergodic.json", "--kind", "forest",
         "--n", "3000", "--seed", "15"],
        "63d5610cddab4cc71fecbe938eb4394fc495dfaa57bf7fb17d7712e48b30882e",
    ),
    "hom-maps": (
        ["hom", "--template", "loop.json", "--graph", "maps.json"],
        "4ba4155a23f92ddebf41396709263c666bdd31e484ffe3edd66ca187e510ca68",
    ),
    "local-ruling": (
        ["local", "-r", "3", "--n", "2000", "--segments", "3",
         "--seed", "16"],
        "fb0e71558d4b7f2f73084a43ba559e2924014d64c035e3886a493a482d4ebe23",
    ),
    "classify-ergodic": (
        ["classify", "--template", "ergodic.json"],
        "6f2c5f99882d3245609f16963daf282e938292f6ba16797061c4c2828263143b",
    ),
    "classify-loop": (
        ["classify", "--template", "loop.json"],
        "88a09a9b5b96b28a5a827873180b6ae4deb7ceb0412c0620411d2b32dea2cb47",
    ),
    "power-ergodic": (
        ["power", "--template", "ergodic.json", "--walk", "ffb"],
        "8031585fd45cb394caf7d654d1ae2b33289835809266d3b3333612fbfc25c325",
    ),
    "power-loop": (
        ["power", "--template", "loop.json", "-p", "3"],
        "74afd393cfedeadff946f8b98613a23a298d28fae122490195afdda233f8b373",
    ),
    "local-template": (
        ["local", "--template", "ergodic.json", "--n", "300",
         "--segments", "2", "--seed", "17"],
        "ff6c5f2992b594cfbcfa938da33e4790d5c79d01ffaabaf56b4cb3edd4f5bfb3",
    ),
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in [("loop.json", LOOP), ("ergodic.json", ERGODIC),
                      ("maps.json", small_maps(300, 12, 18))]:
        (tmp_path / name).write_text(json.dumps(doc))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(inputs, capsys, name):
    argv, digest = GOLDEN[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
