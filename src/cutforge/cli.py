"""Command line front end: file inputs to library calls to text, JSON, DOT.

Universes come from --graph (a graph JSON file), from --group plus --radius
(a Cayley ball), or from a "universe" ref inside a cut file.  A ref is either
a path to a graph JSON file (relative to the cut file) or "<group>@<radius>".

Exit codes: 0 for success, including a pipeline that honestly reports
undetermined; 1 for the first assertion or library failure, with its witness;
2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checks, trees
from .cuts import Cut, CutError, boolean_closure, cut_from_members, members_of_bits
from .ends import (
    DEFAULT_RADIUS,
    DEFAULT_WORD_BOUND,
    ends_profile,
    splitting_pipeline,
)
from .graphs import graph_from_json_dict, graph_to_json_dict, is_forest, str_list
from .groups import GroupError, ball, make_oracle
from .series import DEFAULT_BALL_L, certified_length, measure
from .sieve import SieveError, classify, full_series
from .trees import paired_tree, unpaired_tree, verify_system

_PHRASES = {
    "two": "two ends",
    "one": "one end",
    "zero": "zero ends",
    "infinitely_many": "infinitely many ends",
    "undetermined": "undetermined",
}


def _parse_group(spec):
    """kind:args shorthand (zd:1, free:2, free_product:2,2) or a JSON path."""
    if ":" in spec and not os.path.exists(spec):
        kind, _, rest = spec.partition(":")
        try:
            if kind == "zd":
                return make_oracle({"kind": "zd", "d": int(rest)})
            if kind == "free":
                return make_oracle({"kind": "free", "k": int(rest)})
            if kind == "free_product":
                orders = [int(x) for x in rest.split(",") if x]
                return make_oracle({"kind": "free_product", "orders": orders})
        except ValueError:
            raise GroupError("bad group shorthand %r" % (spec,))
        raise GroupError("unknown group shorthand %r" % (spec,))
    with open(spec) as fh:
        return make_oracle(json.load(fh))


def _load_graph(path):
    with open(path) as fh:
        return graph_from_json_dict(json.load(fh))


def _universe_from_ref(ref, base_dir):
    if "@" in ref:
        gspec, _, rad = ref.rpartition("@")
        try:
            radius = int(rad)
        except ValueError:
            raise CutError("universe %r: the radius after '@' must be an "
                           "integer" % (ref,))
        joined = os.path.join(base_dir, gspec)
        return ball(_parse_group(joined if os.path.exists(joined) else gspec), radius)
    return _load_graph(os.path.join(base_dir, ref))


def _resolve_universe(args, ref, base_dir):
    if getattr(args, "graph", None):
        return _load_graph(args.graph)
    if getattr(args, "group", None):
        return ball(_parse_group(args.group), args.radius)
    if ref:
        if not isinstance(ref, str):
            raise CutError("a cut file's 'universe' must be a string")
        return _universe_from_ref(ref, base_dir)
    raise CutError("no universe: pass --graph or --group, or put a "
                   "'universe' ref in the cut file")


def _cut_object(data):
    if isinstance(data, dict) and ("members" in data or "members_words" in data):
        return data
    raise CutError("a cut must be a JSON object with 'members' or "
                   "'members_words'")


def _cut_from_dict(universe, data, default_name="A"):
    name = _cut_object(data).get("name", default_name)
    if type(name) is not str:
        raise CutError("cut 'name' must be a string")
    if "members_words" in data:
        if not hasattr(universe, "oracle"):
            raise CutError("members_words needs a Cayley-ball universe")
        bits = 0
        for w in str_list(data["members_words"], "cut 'members_words'", CutError):
            bits |= 1 << universe.index_of(universe.oracle.element_from_word(w))
        return Cut(universe, bits, name)
    members = str_list(data["members"], "cut 'members'", CutError)
    return cut_from_members(universe, members, name)


def _load_cut_file(path, args):
    with open(path) as fh:
        data = _cut_object(json.load(fh))
    base = os.path.dirname(os.path.abspath(path))
    universe = _resolve_universe(args, data.get("universe"), base)
    return universe, _cut_from_dict(universe, data)


def _load_cuts_file(path, args):
    with open(path) as fh:
        data = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    ref = None
    items = data
    if isinstance(data, dict):
        ref = data.get("universe")
        items = data.get("cuts")
    if not isinstance(items, list):
        raise CutError("cuts file needs a 'cuts' list")
    universe = _resolve_universe(args, ref, base)
    cuts = [
        _cut_from_dict(universe, d, "c%d" % (i,)) for i, d in enumerate(items)
    ]
    return universe, cuts


def _default_L(universe, flag):
    # certified window only when the universe really is the whole space
    if flag is not None:
        return flag
    if hasattr(universe, "exhausted") and not universe.exhausted:
        return DEFAULT_BALL_L
    return certified_length(universe)


def _emit(text):
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write_dot(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    _emit("wrote %s" % (path,))


def cmd_cayley(args):
    bv = ball(_parse_group(args.group), args.radius)
    if args.json:
        _emit(json.dumps(graph_to_json_dict(bv.graph), indent=2))
        return 0
    if args.dot:
        if not is_forest(bv.graph):
            raise GroupError("DOT output is restricted to forests; "
                             "this ball has cycles")
        _write_dot(args.dot, trees.graph_dot(bv.graph))
        return 0
    _emit("ball of radius %d: %d vertices, %d edges, sphere %d"
          % (bv.radius, bv.nv, bv.graph.ne, len(bv.sphere)))
    if bv.exhausted:
        _emit("exhausted: the ball is the whole Cayley graph")
    return 0


def cmd_measure(args):
    universe, cut = _load_cut_file(args.cut, args)
    s = measure(universe, cut, _default_L(universe, args.L))
    certified = s.L >= certified_length(universe)
    if args.json:
        _emit(json.dumps(
            {"coeffs": s.json_coeffs(), "L": s.L, "certified": certified},
            indent=2,
        ))
        return 0
    _emit("Sigma(%s) = %s" % (cut.name or "A", s))
    _emit("L=%d %s" % (s.L, "certified" if certified else "window"))
    return 0


def cmd_sieve(args):
    universe, cuts = _load_cuts_file(args.cuts, args)
    algebra = boolean_closure(cuts)
    report = classify(algebra)
    # verdicts are exact at every L; L sets only the printed series and label
    L = _default_L(universe, args.L)
    if L < 1:
        raise SieveError("L must be >= 1")
    certified = L >= certified_length(universe)
    if args.json:
        series = full_series(report, L)
        _emit(json.dumps(
            {
                "L": L,
                "certified": certified,
                "elements": [
                    {
                        "mask": el.mask,
                        "status": el.status,
                        "series": [str(c) for c in series[el.mask]],
                    }
                    for el in report.elements
                ],
                "irreducible": [el.mask for el in report.irreducible],
                "undecided": report.undecided_count,
                "complement_stable": report.complement_stable,
                "nested": report.nested,
                "generates": report.generates,
            },
            indent=2,
        ))
        return 0
    _emit("algebra: %d atoms, %d elements"
          % (len(algebra.atoms), len(report.elements)))
    _emit("classified at L=%d (%s): %d irreducible, %d undecided"
          % (L, "certified" if certified else "window",
             len(report.irreducible), report.undecided_count))
    for el in report.irreducible:
        _emit("  irr mask=%d members={%s}"
              % (el.mask, ", ".join(str(v) for v in
                                    members_of_bits(universe, el.bits))))
    _emit("complement-stable: %s  nested: %s  generates: %s"
          % tuple("yes" if f else "no"
                  for f in (report.complement_stable, report.nested,
                            report.generates)))
    return 0


def cmd_tree(args):
    universe, cuts = _load_cuts_file(args.cuts, args)
    system = verify_system(cuts)
    stree = paired_tree(system) if args.mode == "T" else unpaired_tree(system)
    if args.json:
        _emit(json.dumps(trees.tree_json_dict(stree), indent=2))
        return 0
    if args.dot:
        _write_dot(args.dot, trees.tree_dot(stree))
        return 0
    g = stree.graph
    _emit("%s-tree: %d vertices, %d edges" % (stree.mode, g.nv, g.ne))
    for vid, lab in zip(g.vertices, stree.labels):
        _emit("  %s {%s}" % (vid, ", ".join(stree.label_names(lab))))
    for k, (e, s, d) in enumerate(g.edges):
        _emit("  %s: %s -- %s  cut %s" % (e, s, d, trees._cut_name(system, k)))
    return 0


def cmd_ends(args):
    p = ends_profile(_parse_group(args.group), args.rmax)
    if args.json:
        _emit(json.dumps(
            {
                "radii": list(p.radii),
                "counts": list(p.counts),
                "classification": p.classification,
                "witness": list(p.witness) if p.witness else None,
            },
            indent=2,
        ))
        return 0
    _emit("R  components")
    for r, c in zip(p.radii, p.counts):
        _emit("%d  %d" % (r, c))
    _emit(_PHRASES[p.classification])
    return 0


def cmd_split(args):
    oracle = _parse_group(args.group)
    cut = None
    if args.cut:
        with open(args.cut) as fh:
            data = json.load(fh)
        cut = _cut_from_dict(ball(oracle, args.radius), data)
    rep = splitting_pipeline(
        oracle, cut=cut, words=args.words, radius=args.radius
    )
    if args.dot:
        _write_dot(args.dot, trees.tree_dot(rep.stree))
    if args.json:
        _emit(json.dumps(
            {
                "status": rep.status,
                "cut": rep.cut_name,
                "stage": rep.stage,
                "edge_orbits": rep.final_edge_orbit_count,
                "vertex_orbits": rep.final_vertex_orbit_count,
                "vertex_stabilizer_orders":
                    list(rep.final_vertex_stabilizer_orders),
                "edge_stabilizer_order": rep.final_edge_stabilizer_order,
                "certificate": rep.certificate,
            },
            indent=2,
        ))
        return 0
    for line in rep.lines():
        _emit(line)
    return 0


def cmd_check(args):
    lines, code = checks.run_check(args.suite, args.seed)
    for line in lines:
        _emit(line)
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cutforge",
        description="exact cuts, path-counting measures, and structure trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, **flags):
        p = sub.add_parser(name, help=help_text)
        if flags.get("group"):
            p.add_argument("--group", required=flags["group"] == "required",
                           help="group spec (zd:1, free:2, free_product:2,2) "
                                "or JSON path")
        if flags.get("graph"):
            p.add_argument("--graph", help="graph JSON path")
        if flags.get("cut"):
            p.add_argument("--cut", required=flags["cut"] == "required",
                           help="cut JSON path")
        if flags.get("cuts"):
            p.add_argument("--cuts", required=True, help="cuts JSON path")
        if flags.get("L"):
            p.add_argument("--L", type=int, default=None,
                           help="series truncation length")
        if flags.get("rmax"):
            p.add_argument("--rmax", type=int, default=DEFAULT_RADIUS)
        if flags.get("radius"):
            p.add_argument("--radius", type=int, default=DEFAULT_RADIUS)
        if flags.get("words"):
            p.add_argument("--words", type=int, default=DEFAULT_WORD_BOUND)
        if flags.get("mode"):
            p.add_argument("--mode", choices=("T", "U"), default="T")
        if flags.get("dot"):
            p.add_argument("--dot", help="write DOT to this path")
        if flags.get("json"):
            p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    add("cayley", cmd_cayley, "emit a Cayley ball",
        group="required", radius=True, dot=True, json=True)
    add("measure", cmd_measure, "path-counting measure of a cut",
        group=True, graph=True, radius=True, cut="required", L=True, json=True)
    add("sieve", cmd_sieve, "classify a cut algebra",
        group=True, graph=True, radius=True, cuts=True, L=True, json=True)
    add("tree", cmd_tree, "build and verify a structure tree",
        group=True, graph=True, radius=True, cuts=True, mode=True,
        dot=True, json=True)
    add("ends", cmd_ends, "end counts of a group",
        group="required", rmax=True, json=True)
    add("split", cmd_split, "cut orbit to splitting tree",
        group="required", cut=True, words=True, radius=True, dot=True,
        json=True)
    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite", choices=checks.SUITE_NAMES + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write("error: %s\n" % (exc,))
        return 1
