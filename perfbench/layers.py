"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions of each ``cutforge`` layer
by timing wrappers at every name a caller looks up: the defining module and
every module that imported the function by name (``cli`` imports
``measure``, ``classify`` and ``verify_system``; ``sieve`` imports
``atom_pair_table``), and the class for methods such as
``PartialAction.collapse``.  Spans live in memory with their parent ids; a
span's self time is its duration minus the time its child spans cover.
Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict

from workloads import SUITE_NAMES


def _series_bits(series):
    return max((abs(c).bit_length() for c in series.coeffs), default=0)


def _atom_table(args, kwargs, table):
    atoms, L = args[1], args[2]
    last = table[-1] if table else ()
    bits = max((c.bit_length() for row in last for c in row), default=0)
    return {"vector_steps": len(atoms) * L}, {"coeff_bits": bits}


def _transfer(args, kwargs, series):
    return {"vector_steps": series.L}, {"coeff_bits": _series_bits(series)}


def _classify(args, kwargs, report):
    return {"elements": len(report.elements),
            "undecided": report.undecided_count}, {}


def _select(args, kwargs, selection):
    return {"kept": len(selection.kept), "dropped": len(selection.removed)}, {}


def _orbit(args, kwargs, orbit):
    return {"size": len(orbit.cuts)}, {}


def _closure(args, kwargs, algebra):
    return {"atoms": algebra.n_atoms}, {}


def _act_left(args, kwargs, cut):
    return {"ok": 1}, {}


def _verify(args, kwargs, system):
    return {"cuts": len(system.cuts)}, {}


def _ball(args, kwargs, bv):
    return {"vertices": bv.nv}, {}


def _collapse(args, kwargs, result):
    return {"collapse_calls": 1}, {}


# (module, attribute, span name, counter hook).  Several functions may share
# one span name; their self times and counts add up.
TARGETS = (
    ("cutforge.series", "atom_pair_table", "series.atom_pair_table", _atom_table),
    ("cutforge.series", "transfer_counts", "series.transfer_counts", _transfer),
    ("cutforge.series", "enumeration_counts", "series.enumeration_counts", None),
    ("cutforge.sieve", "classify", "sieve.classify", _classify),
    ("cutforge.sieve", "select_nested_generating", "sieve.select", _select),
    ("cutforge.cuts", "orbit_cuts", "cuts.orbit_cuts", _orbit),
    ("cutforge.cuts", "boolean_closure", "cuts.boolean_closure", _closure),
    ("cutforge.cuts", "act_left_cut", "cuts.act_left_cut", _act_left),
    ("cutforge.trees", "verify_system", "trees.verify_system", _verify),
    ("cutforge.trees", "paired_tree", "trees.build", None),
    ("cutforge.trees", "unpaired_tree", "trees.build", None),
    ("cutforge.trees", "build_partial_action", "trees.partial_action", None),
    ("cutforge.trees", "PartialAction.collapse", "trees.partial_action", _collapse),
    ("cutforge.trees", "TreeAction.collapse", "trees.surgery", _collapse),
    ("cutforge.trees", "induce_action", "trees.surgery", None),
    ("cutforge.trees", "collapse_compressible", "trees.surgery", None),
    ("cutforge.trees", "blow_up", "trees.surgery", None),
    ("cutforge.groups", "ball", "groups.ball", _ball),
    ("cutforge.graphs", "components", "graphs.components", None),
    ("cutforge.graphs", "graph_from_json_dict", "graphs.load", None),
    ("cutforge.ends", "balanced_cut", "ends.balanced_cut", None),
    ("cutforge.ends", "ends_profile", "ends.ends_profile", None),
    ("cutforge.ends", "splitting_pipeline", "ends.pipeline", None),
    ("cutforge.cli", "main", "cli", None),
    ("cutforge.checks", "run_suite", "checks", None),
)

class Tracer:
    """Timing wrappers plus the in-memory span store they feed."""

    def __init__(self, clock):
        self._clock = clock
        self._stack = []  # [span id, start, child seconds]
        self._next_id = 0
        self.rounds = 0
        self.spans = []  # (id, parent id, name, start, end), first round only
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.suite_s = defaultdict(float)
        self._patches = []

    def _wrap(self, fn, span, hook):
        stack = self._stack
        clock = self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                self.self_s[span] += duration - frame[2]
                self.counts[span + ".calls"] += 1
                if span == "checks":
                    self.suite_s[args[0]] += duration
                if self.rounds == 0:
                    self.spans.append((span_id, parent, span, frame[1], end))
            if hook is not None:
                add, peak = hook(args, kwargs, result)
                for key, value in add.items():
                    self.counts[span + "." + key] += value
                for key, value in peak.items():
                    self.maxima[key] = max(self.maxima[key], value)
            return result
        return wrapper

    def end_round(self):
        self.rounds += 1

    def install(self):
        """Patch every target at each module attribute or class that holds
        the original function object."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cutforge" or name.startswith("cutforge.")]
        for modname, attr, span, hook in TARGETS:
            home = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, span, hook))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span, hook)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")

    def layer_metrics(self):
        """Per-layer values for one pass over the job list: totals over the
        traced rounds divided by the number of rounds."""
        s, c = self.self_s, self.counts

        def per_round(value):
            return value / self.rounds

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 0.0

        out = {
            "series.atom_pair_table.self_s": per_round(s["series.atom_pair_table"]),
            "series.atom_pair_table.calls": per_round(c["series.atom_pair_table.calls"]),
            "series.atom_pair_table.vector_steps":
                per_round(c["series.atom_pair_table.vector_steps"]),
            "series.transfer_counts.self_s": per_round(s["series.transfer_counts"]),
            "series.transfer_counts.calls": per_round(c["series.transfer_counts.calls"]),
            "series.transfer_counts.vector_steps":
                per_round(c["series.transfer_counts.vector_steps"]),
            "series.enumeration_counts.self_s":
                per_round(s["series.enumeration_counts"]),
            "series.coeff_bits_max": self.maxima["coeff_bits"],
            "sieve.classify.self_s": per_round(s["sieve.classify"]),
            "sieve.classify.elements": per_round(c["sieve.classify.elements"]),
            "sieve.classify.undecided": per_round(c["sieve.classify.undecided"]),
            "sieve.select.self_s": per_round(s["sieve.select"]),
            "sieve.select.kept": per_round(c["sieve.select.kept"]),
            "sieve.select.dropped": per_round(c["sieve.select.dropped"]),
            "cuts.orbit_cuts.self_s": per_round(s["cuts.orbit_cuts"]),
            "cuts.orbit.size": per_round(c["cuts.orbit_cuts.size"]),
            "cuts.boolean_closure.self_s": per_round(s["cuts.boolean_closure"]),
            "cuts.atoms": per_round(c["cuts.boolean_closure.atoms"]),
            "cuts.act_left_cut.self_s": per_round(s["cuts.act_left_cut"]),
            "cuts.act_left_cut.calls": per_round(c["cuts.act_left_cut.calls"]),
            "cuts.act_left_cut.ok_ratio":
                ratio("cuts.act_left_cut.ok", "cuts.act_left_cut.calls"),
            "trees.verify_system.self_s": per_round(s["trees.verify_system"]),
            "trees.verify_system.calls": per_round(c["trees.verify_system.calls"]),
            "trees.verify_system.cuts": per_round(c["trees.verify_system.cuts"]),
            "trees.build.self_s": per_round(s["trees.build"]),
            "trees.partial_action.self_s": per_round(s["trees.partial_action"]),
            "trees.collapse.calls":
                per_round(c["trees.partial_action.collapse_calls"]
                          + c["trees.surgery.collapse_calls"]),
            "trees.surgery.self_s": per_round(s["trees.surgery"]),
            "groups.ball.self_s": per_round(s["groups.ball"]),
            "groups.ball.calls": per_round(c["groups.ball.calls"]),
            "groups.ball.vertices": per_round(c["groups.ball.vertices"]),
            "graphs.components.self_s": per_round(s["graphs.components"]),
            "graphs.components.calls": per_round(c["graphs.components.calls"]),
            "graphs.load.self_s": per_round(s["graphs.load"]),
            "ends.balanced_cut.self_s": per_round(s["ends.balanced_cut"]),
            "ends.ends_profile.self_s": per_round(s["ends.ends_profile"]),
            "ends.pipeline.self_s": per_round(s["ends.pipeline"]),
            "cli.self_s": per_round(s["cli"]),
        }
        for suite in SUITE_NAMES:
            out["checks.%s.s" % suite] = per_round(self.suite_s[suite])
        return out
