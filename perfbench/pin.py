"""Rewrite expected.json from the program in src/.

    python3 perfbench/pin.py

Run this only at a commit whose outputs are known to be right: every
later benchmark run compares against what it records. It records the
stdout digest of every analyze and enumerate call, the failing pairs of
the query graphs (read from their analyze reports), and the digest of
each of the first PINNED_PASSES query passes for seed 0.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
import tempfile

import run
import workloads as wl

PINNED_PASSES = 12


def output(cli_main, argv) -> str:
    c = run.call(cli_main, argv)
    if c.rc != 0:
        sys.exit(f"pin: {' '.join(argv)} exited {c.rc}: {c.err}")
    return c.out


def main() -> None:
    cli_main = run.import_program()
    expected = {"digests": {}, "failing_pairs": {}, "queries_seed0_passes": []}
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        files = wl.write_files("families", workdir)
        for op in wl.pass_ops("families", 0, 0, files, expected):
            out = output(cli_main, op.argv)
            expected["digests"][op.key] = wl.digest(out)
            name = op.key.removeprefix("analyze ")
            if name in map(wl.spec_name, wl.QUERY_GRAPHS):
                pairs = json.loads(out)["star"]["failing_pairs"]
                expected["failing_pairs"][name] = [[i - 1, j - 1] for i, j in pairs]
        for workload in wl.ENUMERATE:
            (op,) = wl.pass_ops(workload, 0, 0, {}, expected)
            expected["digests"][workload] = wl.digest(output(cli_main, op.argv))
        files = wl.write_files("queries", workdir)
        for k in range(PINNED_PASSES):
            stats = run.Stats()
            ops = wl.pass_ops("queries", 0, k, files, expected)
            expected["queries_seed0_passes"].append(run.run_pass(cli_main, ops, expected, stats))
            if stats.failed:
                sys.exit(f"pin: queries pass {k} failed its arithmetic checks")
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass  # a benchmark run is using it
    expected["digests"] = dict(sorted(expected["digests"].items()))
    text = json.dumps(expected, indent=1)
    text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)  # one pair per line
    with open(run.EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


if __name__ == "__main__":
    main()
