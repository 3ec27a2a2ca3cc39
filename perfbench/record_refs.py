"""Record the reference outputs that the benchmark checks job outputs against.

    python3 perfbench/record_refs.py

Rewrites perfbench/references.json: the full stdout of every split and ends
cell, and the sha256 of the seed-0 measure outputs and of the check transcripts.
Run it only at a commit whose outputs are trusted, and commit the result
together with the reason it changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys

import run
import workloads


def _stdout(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    if rc != 0 or err:
        raise SystemExit("%s failed: %r %s" % (" ".join(argv), rc, err))
    return out


def main():
    sys.path.insert(0, run.SRC)
    workdir = os.path.join(run.ROOT, ".perfbench_work", "record-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        import cutforge as cf
        from cutforge import cli
        refs = {
            "split": {workloads.cell_key(a): _stdout(cli, ("split",) + a)
                      for a in workloads.SPLIT_LADDER},
            "ends": {workloads.cell_key(a): _stdout(cli, ("ends",) + a)
                     for a in workloads.ENDS_CELLS},
            "measure_seed0_sha256": {
                label: workloads.sha256(_stdout(cli, argv))
                for tiny in (False, True)
                for label, argv, _graph, _members
                in workloads.measure_cells(cf, workdir, 0, tiny)},
            "check_sha256": {
                suite: {str(s): workloads.sha256(_stdout(
                    cli, ("check", "--suite", suite, "--seed", str(s))))
                    for s in workloads.CHECK_SEEDS}
                for suite in ("all", "graph")},
        }
        with open(workloads.REFERENCES_PATH, "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
