import hashlib
import json
import pathlib
import random
import re

import pytest

import cutforge.groups
from cutforge import checks, cli, series, sieve
from cutforge.cli import main
from cutforge.cuts import boolean_closure, cut_from_members
from cutforge.graphs import Graph
from cutforge.series import measure

GRAPH = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [
        {"id": "e0", "src": "a", "dst": "b"},
        {"id": "e1", "src": "b", "dst": "c"},
        {"id": "e2", "src": "c", "dst": "d"},
    ],
}


@pytest.fixture
def chain_files(tmp_path):
    gpath = tmp_path / "chain.json"
    gpath.write_text(json.dumps(GRAPH))
    cpath = tmp_path / "cuts.json"
    cpath.write_text(
        json.dumps(
            {
                "universe": "chain.json",
                "cuts": [
                    {"name": "A1", "members": ["a"]},
                    {"name": "A2", "members": ["a", "b"]},
                    {"name": "A3", "members": ["a", "b", "c"]},
                ],
            }
        )
    )
    return gpath, cpath


def test_ends_table(capsys):
    assert main(["ends", "--group", "zd:1", "--rmax", "6"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("two ends")
    assert "R  components" in out


def test_ends_json(capsys):
    assert main(["ends", "--group", "free:2", "--rmax", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "infinitely_many"
    assert data["counts"] == [4, 12, 36]


def test_cayley_summary_and_json(capsys):
    assert main(["cayley", "--group", "free:2", "--radius", "2"]) == 0
    assert "17 vertices" in capsys.readouterr().out
    assert main(["cayley", "--group", "free:2", "--radius", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["vertices"]) == 17 and len(data["edges"]) == 16


def test_cayley_dot_restricted_to_forests(tmp_path, capsys):
    out = tmp_path / "ball.dot"
    assert main(["cayley", "--group", "zd:2", "--radius", "2",
                 "--dot", str(out)]) == 1
    assert "restricted to forests" in capsys.readouterr().err
    assert main(["cayley", "--group", "free:1", "--radius", "2",
                 "--dot", str(out)]) == 0
    assert out.read_text().startswith("graph cutforge {")


def test_measure_text_and_json(tmp_path, capsys):
    (tmp_path / "chain.json").write_text(json.dumps(GRAPH))
    cut = tmp_path / "cut.json"
    cut.write_text(json.dumps(
        {"universe": "chain.json", "members": ["a", "b"], "name": "A"}
    ))
    assert main(["measure", "--cut", str(cut)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Sigma(A) = 0 + 1 t")
    assert "L=17 certified" in out
    assert main(["measure", "--cut", str(cut), "--L", "4", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"coeffs": ["0", "1", "2", "4", "6"], "L": 4,
                    "certified": False}


def test_measure_ball_cut_via_words(tmp_path, capsys):
    cut = tmp_path / "zcut.json"
    cut.write_text(json.dumps(
        {"universe": "zd:1@6",
         "members_words": ["", "x^-1", "x^-2", "x^-3", "x^-4", "x^-5", "x^-6"],
         "name": "H"}
    ))
    assert main(["measure", "--cut", str(cut)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Sigma(H) = ")
    assert "L=16 window" in out


def test_sieve_summary(chain_files, capsys):
    _gpath, cpath = chain_files
    assert main(["sieve", "--cuts", str(cpath)]) == 0
    out = capsys.readouterr().out
    assert "algebra: 4 atoms, 16 elements" in out
    assert "6 irreducible, 0 undecided" in out
    assert "complement-stable: yes  nested: yes  generates: yes" in out


def test_sieve_verdicts_do_not_depend_on_L(capsys):
    """On the 5-vertex path of tests/data/p5.json the certified length is
    21; every --L from 1 to 21 prints the same eight irreducible elements
    and no undecided one, since the sieve decides on its exact prefix."""
    cuts = str(pathlib.Path(__file__).parent / "data" / "p5_cuts.json")
    want = None
    for L in range(1, 22):
        assert main(["sieve", "--cuts", cuts, "--L", str(L)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "classified at L=%d (%s): 8 irreducible, 0 undecided" % (
            L, "certified" if L == 21 else "window")
        want = want or lines[2:]
        assert lines[2:] == want, L


@pytest.mark.parametrize("n_cuts", [61, 62, 63])
def test_sieve_counts_elements_past_the_index_range(tmp_path, capsys, n_cuts):
    """The prefix cuts of a 64-vertex path make n_cuts + 1 atoms; from 63
    atoms the element count no longer fits len(), and the text prints it."""
    names = ["v%d" % i for i in range(64)]
    (tmp_path / "path.json").write_text(json.dumps(
        {"vertices": names,
         "edges": [{"id": "e%d" % i, "src": names[i], "dst": names[i + 1]}
                   for i in range(63)]}
    ))
    cpath = tmp_path / "cuts.json"
    cpath.write_text(json.dumps(
        {"universe": "path.json",
         "cuts": [{"name": "P%d" % i, "members": names[:i + 1]}
                  for i in range(n_cuts)]}
    ))
    assert main(["sieve", "--cuts", str(cpath)]) == 0
    lines = capsys.readouterr().out.splitlines()
    a = n_cuts + 1
    assert lines[:2] == [
        "algebra: %d atoms, %d elements" % (a, 1 << a),
        "classified at L=257 (certified): %d irreducible, 0 undecided" % (2 * n_cuts),
    ]
    assert len(lines) == 3 + 2 * n_cuts
    assert lines[-1] == "complement-stable: yes  nested: yes  generates: yes"


C4 = {
    "vertices": ["v1", "v2", "v3", "v4"],
    "edges": [
        {"id": "e1", "src": "v1", "dst": "v2"},
        {"id": "e2", "src": "v2", "dst": "v3"},
        {"id": "e3", "src": "v3", "dst": "v4"},
        {"id": "e4", "src": "v4", "dst": "v1"},
    ],
}


@pytest.mark.parametrize(
    "graph, members",
    [
        (GRAPH, [["a"], ["a", "b"], ["a", "b", "c"]]),
        (C4, [["v1", "v2"], ["v2", "v3"]]),
    ],
    ids=["chain", "c4-crossing-pair"],
)
def test_sieve_json_prints_full_series(tmp_path, capsys, graph, members):
    (tmp_path / "g.json").write_text(json.dumps(graph))
    cpath = tmp_path / "cuts.json"
    cpath.write_text(json.dumps(
        {"universe": "g.json",
         "cuts": [{"name": "C%d" % i, "members": m}
                  for i, m in enumerate(members)]}
    ))
    assert main(["sieve", "--cuts", str(cpath), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    g = Graph(graph["vertices"],
              [(e["id"], e["src"], e["dst"]) for e in graph["edges"]])
    algebra = boolean_closure([cut_from_members(g, m) for m in members])
    L = data["L"]
    assert L == 4 * len(graph["vertices"]) + 1 and data["certified"]
    assert len(data["elements"]) == 1 << algebra.n_atoms
    for el in data["elements"]:
        assert len(el["series"]) == L + 1
        bits = algebra.element_bits(el["mask"])
        assert el["series"] == measure(g, bits, L).json_coeffs()


def test_tree_text_json_dot(chain_files, tmp_path, capsys):
    _gpath, cpath = chain_files
    assert main(["tree", "--cuts", str(cpath), "--mode", "U"]) == 0
    out = capsys.readouterr().out
    assert "U-tree: 4 vertices, 3 edges" in out
    assert main(["tree", "--cuts", str(cpath), "--mode", "U", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [v["label"] for v in data["vertices"]] == [
        ["A1", "A2", "A3"], ["A2", "A3"], ["A3"], []
    ]
    dot = tmp_path / "tree.dot"
    assert main(["tree", "--cuts", str(cpath), "--mode", "U",
                 "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.count(" -- ") == 3


def random_tree_files(tmp_path, n, seed):
    """A seeded random recursive tree on v0..v{n-1} (v_i hangs off a random
    earlier vertex, each edge randomly oriented) and its edge-cut files:
    T.json holds each edge's lower side and its complement, U.json the lower
    sides alone."""
    rng = random.Random(seed)
    parent = [None] + [rng.randrange(i) for i in range(1, n)]
    edges = []
    for i in range(1, n):
        ends = ["v%d" % parent[i], "v%d" % i]
        rng.shuffle(ends)
        edges.append({"id": "e%d" % i, "src": ends[0], "dst": ends[1]})
    below = [{i} for i in range(n)]
    for i in range(n - 1, 0, -1):
        below[parent[i]] |= below[i]
    names = ["v%d" % i for i in range(n)]
    (tmp_path / "tree.json").write_text(json.dumps({"vertices": names, "edges": edges}))
    cuts = {"T": [], "U": []}
    for i in range(1, n):
        side = [v for j, v in enumerate(names) if j in below[i]]
        rest = [v for j, v in enumerate(names) if j not in below[i]]
        cuts["U"].append({"name": "c%d" % i, "members": side})
        cuts["T"] += [{"name": "c%d" % i, "members": side},
                      {"name": "~c%d" % i, "members": rest}]
    for mode, family in cuts.items():
        (tmp_path / ("%s.json" % mode)).write_text(
            json.dumps({"universe": "tree.json", "cuts": family})
        )


# sha256 of `tree` on the edge cuts of a seeded 127-vertex random recursive
# tree (random_tree_files(tmp_path, 127, 27)), in both modes, as text and as
# JSON: every vertex label of a 253-vertex T-tree and a 127-vertex U-tree.
# Update them only together with a CHANGES.md entry that says why the
# transcript moved.
TREE_127_SHA256 = {
    ("T", False):
        "7cf9e1bc5e4b1f1aa56b61fcc5a290ac7aa45395b6c9d87b4f0a5ec3b92c81b4",
    ("T", True):
        "b183e1a1eaa41ced0eda216ee42d40be9c408a54207f538f8970a56b2690452c",
    ("U", False):
        "2030e704107373226075e63a5bc953cdfd6d4acc5bcda276e046692755b77af1",
    ("U", True):
        "e7346563c24f22a394def63491573ba9df53e9eef1560f23180d91f01acd2067",
}


def test_tree_transcripts_of_a_127_vertex_tree_are_pinned(tmp_path, capsys):
    random_tree_files(tmp_path, 127, 27)
    for (mode, as_json), want in TREE_127_SHA256.items():
        argv = ["tree", "--cuts", str(tmp_path / ("%s.json" % mode)), "--mode", mode]
        assert main(argv + ["--json"] * as_json) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, (mode, as_json)


def test_tree_rejects_unusable_system(tmp_path, capsys):
    (tmp_path / "chain.json").write_text(json.dumps(GRAPH))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"universe": "chain.json",
         "cuts": [{"name": "A", "members": ["a", "b"]},
                  {"name": "B", "members": ["b", "c"]}]}
    ))
    assert main(["tree", "--cuts", str(bad), "--mode", "U"]) == 1
    assert "error:" in capsys.readouterr().err


def test_split_text_and_refusal(capsys):
    assert main(["split", "--group", "zd:1"]) == 0
    out = capsys.readouterr().out
    assert "final tree: 1 edge orbit" in out
    assert main(["split", "--group", "zd:2"]) == 1
    assert "no balanced cut" in capsys.readouterr().err


def test_split_json(capsys):
    assert main(["split", "--group", "free_product:2,2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "split"
    assert data["vertex_stabilizer_orders"] == [2, 2]
    assert data["certificate"] == "ball-verified(R=6, W=2, L=53)"


def test_check_suite_runs(capsys):
    assert main(["check", "--suite", "cuts", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("check suite=cuts seed=0")
    assert out.strip().endswith("assertions)")
    assert "[ok]" in out


# sha256 of the full `check --suite all` transcript for seeds 0-5, the seeds
# the benchmark's check workload runs.  Any change to a coefficient, a
# verdict or the transcript format changes them; update them only together
# with a CHANGES.md entry that says why the transcript moved.
CHECK_ALL_SHA256 = {
    0: "9dc63894e7f2c13f31d4c5d9bc669ecc7288677134947e8919919fc3b51d016f",
    1: "753f747dccfb5b706dadd4593d800044c6a85bd769d4ef32cf14a162bc9f55ae",
    2: "1d48041784a21e2e21277f2796773d469ff81c5c5e1527db2e7befef59eb8045",
    3: "80687307ad75714fb088da528206f073a1264b5c2ec733edee76e33b52b9d34f",
    4: "c7ad386430a1ebb6ad8dca591af361782f45c534f38b67beb6e944022456e55b",
    5: "7ce38858062000870f32a98f40f51c131e03d73dd843c9b92e62ef7a7d0cbcb5",
}


def test_check_transcript_is_pinned(capsys):
    for seed, want in CHECK_ALL_SHA256.items():
        assert main(["check", "--suite", "all", "--seed", str(seed)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, seed


# sha256 of the `split` transcript of each cell of the split ladder, the
# cells the benchmark's split workload runs.  Any change to a tree, an orbit,
# a stabilizer count or the report format changes them; update them only
# together with a CHANGES.md entry that says why the transcript moved.
SPLIT_LADDER_SHA256 = {
    "--group zd:1":
        "632a6771997f81afe7fb66f846d675c8c0db0db8125129153d4fa2c9c2f00b2a",
    "--group free:1":
        "632a6771997f81afe7fb66f846d675c8c0db0db8125129153d4fa2c9c2f00b2a",
    "--group free_product:2,2":
        "c9b428d67da3c2578136af8c1e84d2bcfd460085bcded42c5197c77dbf0d8d63",
    "--group free_product:2,3":
        "23ef1379bb6cea7ba5cc29cccfb42a08c414252c01b6ee15dae4ab514b8e7ee3",
    "--group free_product:2,3 --radius 8":
        "c1823435c35cfb2f4d568379accb43a33e3b66f42f69ce1f4171a978e6cc3f94",
    "--group free_product:2,4":
        "c11c12a950ae60c0a3c9ded59ad96f7a4a10e70a401d2c974b52e381d1182ad2",
    "--group free_product:2,2,2 --words 1":
        "77e0a80fe153384087c3186f1c207b6e2365eb792bef9e5c76a698ed5ad089a6",
}


def test_split_ladder_is_pinned(capsys):
    for args, want in SPLIT_LADDER_SHA256.items():
        assert main(["split"] + args.split()) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == want, args


def test_split_ladder_is_pinned_when_no_recurrence_is_certified(monkeypatch, capsys):
    """The split path orders its sieve by the invariant walk levels 0..D,
    which need no recurrence: with the equitable partition behind the
    exact k-prefix made to fail, the transcripts must not move."""
    def refuse(nbrs, atoms):
        raise AssertionError("the split path refined an equitable partition")

    monkeypatch.setattr(series, "_equitable_partition", refuse)
    test_split_ladder_is_pinned(capsys)


def test_split_needs_no_string_graph(monkeypatch, capsys):
    def refuse(*_args, **_kwargs):
        raise AssertionError("split built a string graph")

    monkeypatch.setattr(cutforge.groups, "Graph", refuse)
    args = "--group free_product:2,3"
    assert main(["split"] + args.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SPLIT_LADDER_SHA256[args]


# sha256 of `measure` on the Z^2 ball of radius 10 (|V| = 221, L = 885) through
# the half-plane cut of tests/data/z2_r10_cut.json: a kernel cell whose
# coefficients reach hundreds of digits.  Update it only together with a
# CHANGES.md entry that says why the series moved.
Z2_R10_MEASURE_SHA256 = "2b1aa7a34c91ba5e13fbc27d64ba7f42a568990d4d7d400bfbcc2e9d157b51e2"


def test_measure_of_the_z2_radius_10_cut_is_pinned(tmp_path, capsys):
    graph = tmp_path / "z2_r10.json"
    assert main(["cayley", "--group", "zd:2", "--radius", "10", "--json"]) == 0
    graph.write_text(capsys.readouterr().out)
    cut = str(DATA / "z2_r10_cut.json")
    assert main(["measure", "--graph", str(graph), "--cut", cut]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "L=885 certified"
    assert hashlib.sha256(out.encode()).hexdigest() == Z2_R10_MEASURE_SHA256


# sha256 of `measure --L 300` on the Z^2 ball of radius 25 and the half-plane
# x > 0 of tests/data/z2_r25_cut.json (625 of 1301 vertices): the compiled step
# runs in two chunks of rows, each with its own shared pair sums.  The CI
# long-walk cell pins the same value.
Z2_R25_MEASURE_SHA256 = "2e30cc3523aeb5a6117bda1ca377c4e48cc697802302f9065a35ba4f4b2019d8"


def test_measure_of_the_z2_radius_25_half_plane_is_pinned(tmp_path, capsys):
    graph = tmp_path / "z2_r25.json"
    assert main(["cayley", "--group", "zd:2", "--radius", "25", "--json"]) == 0
    graph.write_text(capsys.readouterr().out)
    cut = str(DATA / "z2_r25_cut.json")
    assert main(["measure", "--graph", str(graph), "--cut", cut, "--L", "300"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "L=300 window"
    assert hashlib.sha256(out.encode()).hexdigest() == Z2_R25_MEASURE_SHA256


# sha256 of `sieve --json` on the 5-vertex path of tests/data/p5_cuts.json: the
# full series of every element at the certified length L = 21, where the packed
# atom walk's lanes are widest.  Update it only together with a CHANGES.md entry
# that says why the series moved.
SIEVE_P5_JSON_SHA256 = "71378f206268e2e63afbb06ecce0461e5cb9661533de5a1aff9bf6b4b5c8227b"


def test_sieve_json_of_the_p5_cuts_is_pinned(capsys):
    assert main(["sieve", "--cuts", str(DATA / "p5_cuts.json"), "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert (data["L"], data["certified"]) == (21, True)
    assert hashlib.sha256(out.encode()).hexdigest() == SIEVE_P5_JSON_SHA256


# sha256 of `sieve --json` on the Z^2 ball of radius 6 (|V| = 85) through the
# two half-plane cuts of tests/data/z2_r6_cuts.json: the full series of its 16
# elements at the certified length L = 341, a walk long enough for the
# compiled step, on the atoms' equitable quotient.  Update it only together
# with a CHANGES.md entry that says why the series moved.
SIEVE_Z2_R6_JSON_SHA256 = "63d10966d14d8619c409a644b7e3363ba2a6585b9f5a72f2ddd916864c9aa33a"


def test_sieve_json_of_the_z2_radius_6_cuts_is_pinned(tmp_path, capsys):
    graph = tmp_path / "z2_r6.json"
    assert main(["cayley", "--group", "zd:2", "--radius", "6", "--json"]) == 0
    graph.write_text(capsys.readouterr().out)
    cuts = str(DATA / "z2_r6_cuts.json")
    assert main(["sieve", "--graph", str(graph), "--cuts", cuts, "--json"]) == 0
    out = capsys.readouterr().out
    data = json.loads(out)
    assert (data["L"], data["certified"], len(data["elements"])) == (341, True, 16)
    assert hashlib.sha256(out.encode()).hexdigest() == SIEVE_Z2_R6_JSON_SHA256


def test_check_and_the_split_ladder_never_compile_a_step(monkeypatch, capsys, tmp_path):
    """`check` walks at most 12 levels, the split path D + 1 <= R + 2 and
    `classify` the k blocks of a small family: all below
    series._COMPILE_LEVELS, so with the compiled step and the compiled end
    sums made to fail the transcripts of check seed 0 and of the split
    ladder must not move.  The certified measure of the R = 10 kernel cell,
    885 levels, compiles."""
    def refuse(nbrs):
        raise AssertionError("a short walk compiled its step")

    monkeypatch.setattr(series, "_compiled_step", refuse)
    monkeypatch.setattr(series, "_end_sum", refuse)
    assert main(["check", "--suite", "all", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_ALL_SHA256[0]
    test_split_ladder_is_pinned(capsys)
    with pytest.raises(AssertionError):
        test_measure_of_the_z2_radius_10_cut_is_pinned(tmp_path, capsys)


# Every split cell of this grid ends in a report or a named refusal, never in
# an internal error: at the default radius, and at radii too small for a
# balanced cut (R = 0, 1) or for its translates (R = 2, 3).
SPLIT_GRID = [
    (group, words, None)
    for group in ("zd:1", "zd:2", "free:1", "free_product:2,2",
                  "free_product:2,3", "free_product:3,3",
                  "free_product:2,2,2", "free:2")
    for words in (1, 2)
] + [("free_product:2,2", 2, r) for r in (0, 1, 2, 3)] + [
    ("zd:1", 2, r) for r in (0, 1)
] + [("zd:2", 2, r) for r in (0, 1, 2)] + [
    ("zd:1", 0, None), ("free_product:2,2", -1, None)
]
NAMED_REFUSAL = re.compile(
    r"^error: (word bound|no balanced cut|measure sieve|cut orbit): "
)
# At R <= 2 some of balanced_cut's candidate edge sets reach the sphere; its
# refusal names only the candidates it tried.
NO_CANDIDATE = (
    "error: no balanced cut: at radius R=%d, every candidate edge set of "
    "balanced_cut (the generator edge classes at the identity and the edge "
    "sets of the radius-1 and radius-2 balls) reaches the sphere, so none was "
    "tried; pass a larger --radius (at 3 or more, all are tried)\n"
)
BALANCED_CUT_REFUSALS = {
    ("free_product:2,2", 2, 0): NO_CANDIDATE % 0,
    ("free_product:2,2", 2, 1): NO_CANDIDATE % 1,
    ("zd:2", 2, 0): NO_CANDIDATE % 0,
    ("zd:2", 2, 1): NO_CANDIDATE % 1,
    ("zd:2", 2, 2): (
        "error: no balanced cut: at radius R=2, balanced_cut tried the "
        "generator edge classes at the identity and the edge set of the "
        "radius-1 ball inside R, and no candidate left two sides that touch "
        "the sphere; a one-ended group such as zd:2 has no such cut, and a "
        "group with more ends may need a larger --radius\n"
    ),
}
# A word bound below 1 is refused before any cut is sought.
WORD_BOUND = (
    "error: word bound: W=%d gives the cut no translates to compare; pass "
    "--words 1 or more\n"
)
PINNED_REFUSALS = {
    **BALANCED_CUT_REFUSALS,
    ("zd:1", 0, None): WORD_BOUND % 0,
    ("free_product:2,2", -1, None): WORD_BOUND % -1,
}


def _grid_id(cell):
    group, words, radius = cell
    return "%s-W%d" % (group, words) + ("" if radius is None else "-R%d" % radius)


@pytest.mark.parametrize(
    "group, words, radius", SPLIT_GRID, ids=[_grid_id(c) for c in SPLIT_GRID]
)
def test_split_grid_ends_in_a_report_or_a_named_refusal(
    capsys, group, words, radius
):
    argv = ["split", "--group", group, "--words", str(words)]
    code = main(argv + ([] if radius is None else ["--radius", str(radius)]))
    out, err = capsys.readouterr()
    if code == 1:
        assert NAMED_REFUSAL.match(err), err
        assert err == PINNED_REFUSALS.get((group, words, radius), err)
        return
    assert code == 0
    last = out.splitlines()[-2]
    assert last.startswith(("final tree: ", "undetermined: ")), out
    if group == "free_product:3,3":
        # Z/3 * Z/3 splits along its factors: each vertex stabilizer counts
        # the W-ball of one Z/3, 3 elements at W = 1 and 2
        assert last == (
            "final tree: 1 edge orbit, 2 vertex orbits, vertex stabilizers "
            "[3, 3], edge stabilizer 1"
        )


DATA = pathlib.Path(__file__).parent / "data"


# Kept cuts of the W=1 systems of Z/3 * Z/3 and Z/3 * Z/4 under the k-prefix
# order, written as members_words.  Fed back through `split --cut`, no
# collapse stage of fp33_c2 fixes a vertex: the cut images of b and b^-1 are
# missing or inconsistent on the tree.  Through fp34_c0 and fp34_c2 the
# final tree has one edge orbit and one vertex orbit, an HNN extension,
# which Z/3 * Z/4 (finite abelianization) is not; b, of order 4, inverts an
# edge there, and the audit ends the report undetermined.
AUDIT_FAILS = (
    "the split fails its audit: generator b has order 4 but moves a vertex of "
    "the final tree an odd distance, so it fixes no vertex, and a finite group "
    "acting on a tree without inversion fixes a vertex (Serre, Trees, I.4.3); "
    "ball evidence"
)
REFED_CUTS = [
    (
        "free_product:3,3",
        "fp33_c2.json",
        "no vertex is fixed by all generators at any collapse stage within "
        "the ball evidence (R=6, W=1); words that gave no evidence (cut images "
        "missing or inconsistent on the tree): b, b^-1",
    ),
    ("free_product:3,4", "fp34_c0.json", AUDIT_FAILS + " (R=6, W=1)"),
    ("free_product:3,4", "fp34_c2.json", AUDIT_FAILS + " (R=6, W=1)"),
]


@pytest.mark.parametrize(
    "group, fixture, why", REFED_CUTS, ids=[f for _g, f, _w in REFED_CUTS]
)
def test_split_of_a_refed_kept_cut_is_undetermined(capsys, group, fixture, why):
    code = main(
        ["split", "--group", group, "--words", "1", "--cut", str(DATA / fixture)]
    )
    out, err = capsys.readouterr()
    assert code == 0, err
    last = out.splitlines()[-2]
    assert last == "undetermined: %s" % (why,)


# A cut with no vertex, or with every vertex, of the ball has no two sides
# to split along; the pipeline refuses it before the cut orbit.
WHOLE_BALL = {"name": "A", "members_words": ["x^%d" % k for k in range(-6, 7)]}


@pytest.mark.parametrize("content, why", [
    (None, "A is empty"),
    (WHOLE_BALL, "A is the whole ball"),
], ids=["empty", "whole-ball"])
def test_split_refuses_a_cut_without_two_sides(tmp_path, capsys, content, why):
    path = DATA / "zd1_empty_cut.json"
    if content is not None:
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(content))
    assert main(["split", "--group", "zd:1", "--cut", str(path)]) == 1
    assert capsys.readouterr() == (
        "",
        "error: cut: %s (R=6); pass a cut with vertices on both sides\n" % (why,),
    )


@pytest.mark.parametrize("group, word, why", [
    ("zd:1", "x^100", "element 100 outside ball of radius 6"),
    ("zd:1", "x^10000000000", "element 10000000000 outside ball of radius 6"),
    ("free:2", "a^10000000000",
     "element a^10000000000 has length 10000000000, outside ball of radius 6"),
], ids=["100", "10000000000", "free:2-10000000000"])
def test_split_refuses_a_member_word_outside_the_ball(
    tmp_path, capsys, group, word, why
):
    """A huge power is read by repeated squaring, so it is refused as fast
    as a small one, in the same words.  A free word's length is read off its
    merged syllables, so a free power is refused before it is formed."""
    path = tmp_path / "cut.json"
    path.write_text(json.dumps({"name": "A", "members_words": ["", word]}))
    assert main(["split", "--group", group, "--cut", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % (why,))


def test_a_member_word_with_huge_powers_inside_the_ball_is_kept(tmp_path, capsys):
    """Huge powers that cancel to an element of the ball are never refused:
    the cut is the one of the identity and a."""
    outs = []
    for word in ("a", "b^10000000000 b^-10000000000 a^10000000000 a^-9999999999"):
        path = tmp_path / "cut.json"
        path.write_text(json.dumps({"name": "A", "members_words": ["", word]}))
        assert main(["measure", "--group", "free:2", "--radius", "3", "--cut", str(path),
                     "--L", "1"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1] == ("Sigma(A) = 0 + 6 t\nL=1 window\n", "")


def test_sieve_and_tree_suites_share_their_artifacts(monkeypatch):
    built = []
    real = checks.sieve_artifacts
    monkeypatch.setattr(
        checks, "sieve_artifacts", lambda seed: built.append(seed) or real(seed)
    )
    shared = {}
    for name in ("sieve", "tree"):
        checks.run_suite(name, 3, shared)
    assert built == [3]


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_file_is_reported(capsys):
    assert main(["measure", "--cut", "/nonexistent/cut.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_group_file_is_reported(tmp_path, capsys):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps(
        {"kind": "perm", "degree": 3, "gens": [[1, 2, 0], [1, 0, 2]],
         "names": ["r"]}
    ))
    assert main(["ends", "--group", str(spec), "--rmax", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: perm oracle needs one name per generator\n"
    )


@pytest.mark.parametrize(
    "spec, why",
    [
        ("zd:0", "zd needs d >= 1"),
        ("free:0", "free needs k >= 1"),
        ("free_product:1", "free_product needs cyclic orders >= 2"),
        ("zd:x", "bad group shorthand 'zd:x'"),
        ("free:27", "free needs k <= 26: generators are named a to z"),
        (
            "free_product:" + ",".join(["2"] * 27),
            "free_product needs at most 26 factors: generators are named a to z",
        ),
    ],
)
def test_group_shorthand_refusal_names_its_rule(capsys, spec, why):
    assert main(["cayley", "--group", spec, "--radius", "1"]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % (why,))


CUT_OBJECT = "a cut must be a JSON object with 'members' or 'members_words'"
# (command, file name, file content, its one error line).  The test writes
# the chain graph as chain.json and two malformed graphs beside the file.
MALFORMED_FILES = [
    ("measure --cut", "cut.json", ["a"], CUT_OBJECT),
    ("split --group zd:1 --cut", "cut.json", ["a"], CUT_OBJECT),
    ("sieve --cuts", "cuts.json", {"universe": "chain.json", "cuts": ["a"]},
     CUT_OBJECT),
    ("sieve --cuts", "cuts.json", {"universe": "chain.json", "cuts": 5},
     "cuts file needs a 'cuts' list"),
    ("measure --cut", "cut.json", {"universe": "chain.json", "members": 5},
     "cut 'members' must be a list of strings"),
    ("measure --cut", "cut.json", {"universe": "chain.json", "members": "ab"},
     "cut 'members' must be a list of strings"),
    ("measure --cut", "cut.json",
     {"universe": "zd:1@3", "members_words": "x"},
     "cut 'members_words' must be a list of strings"),
    ("measure --cut", "cut.json", {"universe": 5, "members": ["a"]},
     "a cut file's 'universe' must be a string"),
    ("measure --cut", "cut.json", {"universe": "zd:1@x", "members_words": []},
     "universe 'zd:1@x': the radius after '@' must be an integer"),
    ("measure --cut", "cut.json", {"universe": "chain.json"}, CUT_OBJECT),
    ("tree --mode U --cuts", "cuts.json",
     {"universe": "chain.json", "cuts": [{"name": 5, "members": ["a"]}]},
     "cut 'name' must be a string"),
    ("measure --cut", "cut.json",
     {"universe": "abc.json", "members": ["a"]},
     "graph vertices must be a list of strings"),
    ("measure --cut", "cut.json",
     {"universe": "list_id.json", "members": ["a"]},
     "graph edge ids and ends must be a list of strings"),
]


@pytest.mark.parametrize(
    "command, name, content, why",
    MALFORMED_FILES,
    ids=["measure-list", "split-list", "cuts-item-string", "cuts-number",
         "members-number", "members-string", "members-words-string",
         "universe-number", "universe-radius", "no-members", "name-number",
         "graph-vertices-string",
         "graph-edge-id-list"],
)
def test_malformed_cut_or_graph_file_is_one_error_line(
    tmp_path, capsys, command, name, content, why
):
    (tmp_path / "chain.json").write_text(json.dumps(GRAPH))
    (tmp_path / "abc.json").write_text(
        json.dumps({"vertices": "abc", "edges": []})
    )
    (tmp_path / "list_id.json").write_text(json.dumps(
        {"vertices": ["a", "b"], "edges": [{"id": ["e"], "src": "a", "dst": "b"}]}
    ))
    path = tmp_path / name
    path.write_text(json.dumps(content))
    assert main(command.split() + [str(path)]) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % (why,))


# sha256 of `split --group free:2` at the default --words 2: 18 atoms, whose
# 2^18 elements the lazy sieve never lists; the eager sieve prints the same
FREE2_SPLIT_SHA256 = "0504497b8f3530256b05d954e14ea8804f1dd1e4200958d6bcd18f31d63f77ab"


def test_split_free2_at_the_default_word_bound_is_pinned(capsys):
    assert main(["split", "--group", "free:2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[1] == "sieve: 262144 algebra elements, 34 irreducible, 0 undecided"
    assert lines[-2:] == [
        "final tree: 1 edge orbit, 1 vertex orbits, vertex stabilizers [5], "
        "edge stabilizer 1",
        "ball-verified(R=6, W=2, L=5829)",
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == FREE2_SPLIT_SHA256


def test_split_whose_depth_order_ties_a_crossing_pair_is_undetermined(
    monkeypatch, tmp_path, capsys
):
    """With the invariant depth forced to 1, the split path orders the sieve
    by the cut weight c_1 alone, and on Z/3 * Z/3 at W=1 a tie group holds a
    crossing pair.  The report stops at the sieve, undetermined, naming D, R,
    W and the remedy; it has no tree, so no DOT file is written."""
    monkeypatch.setattr(sieve, "invariant_depth", lambda pieces: 1)
    dot = tmp_path / "tree.dot"
    argv = ["split", "--group", "free_product:3,3", "--words", "1", "--dot", str(dot)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and not dot.exists()
    assert out.splitlines() == [
        "cut A (64 vertices), orbit of 5 translates",
        "sieve: 256 algebra elements, 22 irreducible, 0 undecided",
        "undetermined: the sieve's order ties a crossing pair of irreducible "
        "cuts on walk levels 0..D=1, the levels every translate sees alike "
        "within the ball evidence (R=6, W=1), so its family is not nested; "
        "pass --radius 7 for more such levels",
        "ball-verified(R=6, W=1, L=1013)",
    ]
    assert main(argv[:-2] + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "undetermined"


def test_split_free2_lists_no_series_of_every_mask(monkeypatch, capsys):
    """The split path reads only the masks the sieve visits: with the full
    pass over all 2^18 masks made to fail, the transcript is unchanged."""
    def refuse(*args):
        raise AssertionError("a full pass over every mask")

    monkeypatch.setattr(sieve, "_series_by_mask", refuse)
    assert main(["split", "--group", "free:2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FREE2_SPLIT_SHA256


def test_sieve_json_above_the_listing_cap_is_refused(tmp_path, capsys):
    """Twelve singleton cuts of a 14-vertex path leave 13 atoms: `sieve`
    classifies them, and `sieve --json`, which lists all 2^13 elements,
    refuses with the cap's name and the remedy."""
    names = ["v%d" % i for i in range(14)]
    (tmp_path / "g.json").write_text(json.dumps({
        "vertices": names,
        "edges": [{"id": "e%d" % i, "src": names[i], "dst": names[i + 1]}
                  for i in range(13)],
    }))
    cpath = tmp_path / "cuts.json"
    cpath.write_text(json.dumps({
        "universe": "g.json",
        "cuts": [{"name": "C%d" % i, "members": [names[i]]} for i in range(12)],
    }))
    assert main(["sieve", "--cuts", str(cpath)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "algebra: 13 atoms, 8192 elements"
    assert out[-1] == "complement-stable: yes  nested: yes  generates: yes"
    assert main(["sieve", "--cuts", str(cpath), "--json"]) == 1
    assert capsys.readouterr() == (
        "",
        "error: measure sieve: algebra has 13 atoms; listing all 2^13 elements "
        "is capped at MAX_LISTED_ATOMS = 12; pass fewer cuts (for sieve, drop "
        "--json)\n",
    )


def test_group_file_in_tests_data(capsys):
    s3 = str(pathlib.Path(__file__).parent / "data" / "s3.json")
    assert main(["ends", "--group", s3, "--rmax", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "zero ends"
    assert main(["cayley", "--group", s3, "--radius", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ball of radius 3: 6 vertices, 12 edges, sphere 0",
        "exhausted: the ball is the whole Cayley graph",
    ]


REUSE_SEQUENCE = [
    ["split"],  # usage: --group is required
    ["no-such-command"],  # usage: invalid choice
    ["--words", "x"],  # usage: no command
    ["split", "--group", "zd:1", "--words", "x"],  # usage: not an int
    ["--help"],
    ["split", "--help"],
    ["split", "--group", "zd:1", "--words", "0"],  # refusal
    ["split", "--group", "zd:1"],
    ["split", "--group", "zd:1"],
    ["check", "--suite", "graph", "--seed", "1"],
]


def _transcript(capsys, sequence):
    out = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out.append((code,) + tuple(capsys.readouterr()))
    return out


def test_main_reuses_one_parser(capsys, monkeypatch):
    cli._parser.cache_clear()
    reused = _transcript(capsys, REUSE_SEQUENCE)
    assert cli._parser() is cli._parser()
    assert [code for code, _out, _err in reused] == [2, 2, 2, 2, 0, 0, 1, 0, 0, 0]
    assert reused[0][2].endswith(
        "error: the following arguments are required: --group\n"
    )
    for command in ("cayley", "measure", "sieve", "tree", "ends", "split", "check"):
        assert re.search(r"^ +%s( |$)" % command, reused[4][1], re.MULTILINE)
    assert reused[7] == reused[8]
    # the same argv through a fresh build_parser() on every call
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert reused == _transcript(capsys, REUSE_SEQUENCE)
