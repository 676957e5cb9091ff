"""Record the exact answers of the current code for a workload's catalog.

Run from the root of a checkout whose outputs are the reference:

    python3 perfbench/make_golden.py --workload lattice-min

For every catalog entry, warm-up slots included, it writes
``golden/<workload>.json`` with a digest of the input and a digest of the
exact output fields (``golden_fields``), after the independent checks of
``workloads.py`` have passed.  The rounds are shared out over one worker
process per CPU this process may use.  The benchmark compares each operation
against this record, so regenerate it only when an output is meant to
change, and say so.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _round(job):
    """Digests of every slot of one round; runs in a worker process."""
    name, r, work = job
    sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]
    import run
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    cli = sys.modules.get("blockbounds.cli") or run.fresh_cli()
    entries = []
    for s in range(len(wl.SLOTS) + len(wl.WARMUP)):
        inp = wl.make(r, s)
        inp.path = os.path.join(work, f"{os.getpid()}.json")
        with open(inp.path, "w") as fh:
            fh.write(inp.text)
        res = run.call(cli.run, wl, inp)
        out = json.loads(res.stdout)
        errs = wl.check(inp, res.rc, out)
        if res.error or errs:
            raise SystemExit(f"{name} {inp.key} ({inp.family}): {res.error or errs}")
        entries.append(f"{run._digest(inp.text)}:{run._digest(wl.golden_fields(res.rc, out))}")
    return entries


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = os.path.join(os.getcwd(), ".perfbench-out")
    os.makedirs(work, exist_ok=True)
    jobs = [(wl.name, r, work) for r in range(wl.ROUNDS)]
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        rounds = pool.map(_round, jobs, chunksize=1)
    entries = [e for rnd in rounds for e in rnd]
    path = os.path.join(HERE, "golden", wl.name + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    slots = len(wl.SLOTS) + len(wl.WARMUP)
    with open(path, "w") as fh:
        fh.write('{"rounds": %d, "slots": %d, "entries": [\n' % (wl.ROUNDS, slots))
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")
    print(f"wrote {path}: {len(entries)} entries")


if __name__ == "__main__":
    main()
