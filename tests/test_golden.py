"""Golden CLI outputs: sha256 of stdout for small fixed-seed runs.

The digests pin the exact reports (labels, members, verifier counts) so
a refactor that changes any byte of them fails here.  Each request also
pins its exit code and its one-line stderr summary, and the bytes of
any file it writes.  Input files are written into a temporary working
directory and named by relative path, because reports echo the paths
they were given.
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


# name: (argv, exit code, stderr summary, stdout sha256)
GOLDEN = {
    "hit-forest": (
        ["hit", "--kind", "forest", "--n", "3000", "--seed", "11", "-r", "5"],
        0, "greedy hitting set: 502 members, independent=True hitting=True",
        "0a41544860a8af74598ece1f562ab7935dc7f721b1a4ec2953ac1964e9dafe27",
    ),
    "drhom-forest": (
        ["drhom", "--kind", "forest", "--n", "3000", "--seed", "12",
         "-r", "4"],
        0, "countdown labeling: 0 violations, round trip exact",
        "ba445f032ee985f921e57a39a604de17a69d2c02e7a1a388c87b2cd2ed31796c",
    ),
    "asdim-forest": (
        ["asdim", "--kind", "forest", "--n", "1500", "--seed", "13",
         "--t", "1", "--t", "2"],
        0, "two-set witness pipeline t=[1, 2]: max class diameter 9, ok=True",
        "e331e22e11e1e01cca17eb28161f56b45597ca7a49911acd9d6d6346ecb7d6bc",
    ),
    "asdim-path": (
        ["asdim", "--kind", "path", "--n", "1500", "--t", "1", "--t", "2"],
        0, "two-set witness pipeline t=[1, 2]: max class diameter 12, "
           "ok=True",
        "75996b27ed2c1c203221ae9b75ac09906fc1194d7357702402dcf0940b603588",
    ),
    "hom-total": (
        ["hom", "--template", "loop.json", "--kind", "total", "--n", "3000",
         "--seed", "14"],
        0, "homomorphism present",
        "04b3ee4f55d4db99ad40f465b41f51d54c3583b67f6d99aa59e672af8f2947cf",
    ),
    "hom-forest": (
        ["hom", "--template", "ergodic.json", "--kind", "forest",
         "--n", "3000", "--seed", "15"],
        0, "solved via ergodic_no_loop: 2982/3000 labeled, "
           "0 interior violations",
        "63d5610cddab4cc71fecbe938eb4394fc495dfaa57bf7fb17d7712e48b30882e",
    ),
    "hom-maps": (
        ["hom", "--template", "loop.json", "--graph", "maps.json"],
        0, "homomorphism present",
        "4ba4155a23f92ddebf41396709263c666bdd31e484ffe3edd66ca187e510ca68",
    ),
    "local-ruling": (
        ["local", "-r", "3", "--n", "2000", "--segments", "3",
         "--seed", "16"],
        0, "ruling set in 40 rounds: 371 members, independent=True "
           "hitting=True",
        "fb0e71558d4b7f2f73084a43ba559e2924014d64c035e3886a493a482d4ebe23",
    ),
    "classify-ergodic": (
        ["classify", "--template", "ergodic.json"],
        0, "ErgodicNoLoop",
        "6f2c5f99882d3245609f16963daf282e938292f6ba16797061c4c2828263143b",
    ),
    "classify-loop": (
        ["classify", "--template", "loop.json"],
        0, "Loop",
        "88a09a9b5b96b28a5a827873180b6ae4deb7ceb0412c0620411d2b32dea2cb47",
    ),
    "power-ergodic": (
        ["power", "--template", "ergodic.json", "--walk", "ffb"],
        0, "walk power 'ffb': 7 edges",
        "8031585fd45cb394caf7d654d1ae2b33289835809266d3b3333612fbfc25c325",
    ),
    "power-loop": (
        ["power", "--template", "loop.json", "-p", "3"],
        0, "walk power 'fff': 14 edges",
        "74afd393cfedeadff946f8b98613a23a298d28fae122490195afdda233f8b373",
    ),
    "local-template": (
        ["local", "--template", "ergodic.json", "--n", "300",
         "--segments", "2", "--seed", "17"],
        0, "template solving in 162 rounds: 285/300 labeled, 0 violations",
        "ff6c5f2992b594cfbcfa938da33e4790d5c79d01ffaabaf56b4cb3edd4f5bfb3",
    ),
    "gen-forest": (
        ["gen", "--kind", "forest", "--n", "200", "--seed", "5"],
        0, "forest graph n=200 seed=5 acyclic=True",
        "137a2e461aeb90a43958db5782bccfb315bad56137f27c353a81ff2a55a1d5aa",
    ),
    "gen-out": (
        ["gen", "--kind", "total", "--n", "300", "--seed", "6",
         "--out", "g.json"],
        0, "wrote total graph n=300 to g.json",
        "ca3fa90dafab8e9f8fb9c6bd34ec5acd4aa36485a61bdc7595db3e742e80cf50",
    ),
    "gen-out-empty": (  # an empty --out prints the graph itself
        ["gen", "--kind", "path", "--n", "50", "--out", ""],
        0, "path graph n=50 seed=0 acyclic=True",
        "b4525ecfbc3955bc9f0368c89f63ea784a655c4cef7f5d06888fbbca3e8788e9",
    ),
    "power-out": (
        ["power", "--template", "ergodic.json", "--walk", "ffb",
         "--out", "p.json"],
        0, "wrote walk power 'ffb' to p.json",
        "e373721a7fe6ab4f5ca0a4e7d77f1a6f28040b4a429fcb8bdd0cf7f1a94561be",
    ),
    "shift": (
        ["shift", "-r", "2", "--length", "400", "--count", "50",
         "--seed", "3"],
        0, "countdown relation r=2: 50 pairs checked, 0 violations, "
           "dense windows 50/50",
        "3df76ab69e3473ee10d1ab9bc85ccda30cce17944ca66921ba46a014daf84dc1",
    ),
    "hom-maps-absent": (  # a loopless template has no image for fixed points
        ["hom", "--template", "ergodic.json", "--graph", "maps.json"],
        1, "no homomorphism",
        "c26421cfdfdff6c943789cc518ff901c0ab1bea513313ce22d1f5fa162768d60",
    ),
}

# bytes of the files the --out requests write
WRITTEN = {
    "gen-out": (
        "g.json",
        "fd61283d9ead7259b94e0edc0687258559b67b38e4cddbae7cb20db0f1c75db1",
    ),
    "power-out": (  # the same bytes as power-ergodic's stdout
        "p.json",
        "8031585fd45cb394caf7d654d1ae2b33289835809266d3b3333612fbfc25c325",
    ),
}

# drhom, then drhom --labels on the labels it reported
ROUND_TRIP = (
    (["drhom", "--kind", "forest", "--n", "200", "--seed", "19", "-r", "3"],
     0, "countdown labeling: 0 violations, round trip exact",
     "5b5d69bfca51c12110be3666a6b39d74752ee46b7215ee71bc47cd32e2e76093"),
    (["drhom", "--kind", "forest", "--n", "200", "--seed", "19", "-r", "3",
      "--labels", "labels.json"],
     0, "labeling converts to a 3-independent hitting set with 52 members",
     "91773aa4c3206e1ab6b759fd0786e5a47ba6834b80dda5f97bfc7b655e32d6f5"),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check(capsys, argv, code, summary, digest) -> str:
    """Run one request against its pinned exit code, summary and digest."""
    got = main(argv)
    captured = capsys.readouterr()
    assert got == code
    assert captured.err == summary + "\n"
    assert sha256(captured.out.encode()) == digest
    return captured.out


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in [("loop.json", LOOP), ("ergodic.json", ERGODIC),
                      ("maps.json", small_maps(300, 12, 18))]:
        (tmp_path / name).write_text(json.dumps(doc))
    return tmp_path


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_matches_golden_digest(inputs, capsys, name):
    check(capsys, *GOLDEN[name])
    if name in WRITTEN:
        path, digest = WRITTEN[name]
        assert sha256((inputs / path).read_bytes()) == digest


def test_drhom_labels_round_trip_matches_golden_digests(inputs, capsys):
    first, back = ROUND_TRIP
    labels = json.loads(check(capsys, *first))["labels"]
    (inputs / "labels.json").write_text(json.dumps({"labels": labels}))
    check(capsys, *back)
