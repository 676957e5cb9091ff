"""Benchmark of the ``blockbounds`` command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bounds-compare --seed 1 --seconds 30 --trace 0

Each operation is one in-process call ``blockbounds.cli.run([..., "--input",
FILE, "--format", "records"])`` on a file written beforehand; one client, a
closed loop, no threads.  The timed pass runs whole catalog rounds (see
``workloads.py``) until ``--seconds`` of operation time have passed and at
least ``MIN_SAMPLES`` operations have run, so every run sees the same mix.
Outputs are parsed and checked after the clock stops.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed
number of rounds, each input untraced and then traced, and prints the
per-layer metrics.

The end-to-end times are given at reference speed.  The speed of a shared
machine wanders by tens of percent within minutes, and every operation of a
run slows with it.  So after every operation and set-up the benchmark times
a fixed computation of its own (``reference_work``, plain integer
arithmetic that shares no code with the program), and scales each measured
time by ``REF_SECONDS`` over the median of the reference times around it:
a time is what the step would have taken while the reference took
``REF_SECONDS``.  The unscaled figures are printed on the info line.

The last line of standard output is the JSON result; the line before it
describes the run (input digest, sample count, failed fraction).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 21
# The time reference_work is scaled to, and the number of reference samples
# on each side of a step whose median gives the machine's speed at that step.
REF_SECONDS = 0.001
REF_WINDOW = 10
MIN_SAMPLES = 100
HELD_OUT_SEED = 9173
OUT_DIR = ".perfbench-out"


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


# ------------------------------------------------------------------- plan


class Plan:
    """Warm-up inputs and timed rounds for one seed.

    The seed shuffles the catalog rounds.  The warm-up inputs are the
    ``WARMUP`` slots of the first shuffled round, which no timed slot shares;
    a timed round is skipped if any of its inputs repeats one already used
    in this run, so the form-minimum cache can serve only sharing that lies
    inside distinct inputs.
    """

    def __init__(self, workload, seed: int, work: str):
        self.wl = workload
        self.work = work
        order = list(range(workload.ROUNDS))
        random.Random(f"plan:{workload.name}:{seed}").shuffle(order)
        self.order = order
        self.seen: set = set()
        self.skipped = 0
        self.digest = hashlib.sha256()
        timed = len(workload.SLOTS)
        self.warmup = self._write([workload.make(order[0], timed + s)
                                   for s in range(len(workload.WARMUP))])
        for inp in self.warmup:
            self.seen.add(inp.content)
            self.digest.update(inp.text.encode())
        if len(self.seen) != len(self.warmup):
            raise BenchmarkError("warm-up inputs repeat")

    def _write(self, inputs):
        for inp in inputs:
            inp.path = os.path.join(self.work, inp.key + ".json")
            with open(inp.path, "w") as fh:
                fh.write(inp.text)
        return inputs

    def rounds(self):
        """Yield each timed round as a list of inputs written to disk."""
        wl = self.wl
        for r in self.order:
            inputs = [wl.make(r, s) for s in range(len(wl.SLOTS))]
            contents = {inp.content for inp in inputs}
            if len(contents) != len(inputs) or contents & self.seen:
                self.skipped += 1
                continue
            self.seen |= contents
            for inp in inputs:
                self.digest.update(inp.text.encode())
            yield self._write(inputs)


# ------------------------------------------------------------- operations


class Result:
    __slots__ = ("inp", "rc", "stdout", "wall", "cpu", "error")

    def __init__(self, inp, rc, stdout, wall, cpu, error):
        self.inp, self.rc, self.stdout = inp, rc, stdout
        self.wall, self.cpu, self.error = wall, cpu, error


def call(run, wl, inp) -> Result:
    argv = wl.argv + ["--input", inp.path, "--format", "records"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = run(argv)
        except Exception:  # counted as a failed operation
            rc, error = None, traceback.format_exc()
        t1 = time.perf_counter()
        c1 = time.process_time()
    return Result(inp, rc, out.getvalue(), t1 - t0, c1 - c0, error)


def fresh_cli():
    """Import blockbounds.cli from scratch: new module state, empty caches."""
    for name in [m for m in sys.modules if m == "blockbounds" or m.startswith("blockbounds.")]:
        del sys.modules[name]
    return importlib.import_module("blockbounds.cli")


def set_up(wl, plan):
    """Import plus warm-up; returns (cli module, seconds, warm-up results)."""
    t0 = time.perf_counter()
    cli = fresh_cli()
    results = [call(cli.run, wl, inp) for inp in plan.warmup]
    return cli, time.perf_counter() - t0, results


# ------------------------------------------------------- machine speed


class _Q:
    """A bare rational number; the reference must not use ``fractions``,
    which a change to the program could replace or speed up."""

    __slots__ = ("n", "d")

    def __init__(self, n, d):
        g = math.gcd(n, d)
        self.n, self.d = n // g, d // g

    def add(self, o):
        return _Q(self.n * o.d + o.n * self.d, self.d * o.d)

    def mul(self, o):
        return _Q(self.n * o.n, self.d * o.d)


def reference_work():
    """A fixed computation in the style of the program (small rational
    matrix products: calls, allocation, gcd), about a millisecond long."""
    a = [[_Q(i + 2 * j + 1, 1 + (i * j) % 5) for j in range(6)] for i in range(6)]
    for _ in range(3):
        prod = []
        for i in range(6):
            row = []
            for j in range(6):
                acc = a[i][0].mul(a[0][j])
                for k in range(1, 6):
                    acc = acc.add(a[i][k].mul(a[k][j]))
                row.append(_Q(acc.n % 1009 + 1, acc.d % 13 + 1))
            prod.append(row)
        a = prod
    return a


class SpeedGauge:
    """Reference timings along a run, one after every measured step."""

    def __init__(self):
        self.samples: list = []

    def tick(self) -> int:
        """Time the reference once; returns the sample's position."""
        t0 = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, at: int) -> float:
        """Factor taking a time measured next to sample ``at`` to reference
        speed."""
        near = self.samples[max(0, at - REF_WINDOW):at + REF_WINDOW + 1]
        return REF_SECONDS / statistics.median(near)


# ----------------------------------------------------------------- checks


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden(wl) -> list:
    with open(os.path.join(HERE, "golden", wl.name + ".json")) as fh:
        golden = json.load(fh)
    slots = len(wl.SLOTS) + len(wl.WARMUP)
    if golden["rounds"] != wl.ROUNDS or golden["slots"] != slots:
        raise BenchmarkError(f"golden/{wl.name}.json does not match the catalog shape")
    return golden["entries"]


def judge(wl, golden, res: Result) -> list:
    """Reasons the operation's result is wrong; empty when it is right."""
    if res.error is not None:
        return [res.error.strip().splitlines()[-1]]
    try:
        out = json.loads(res.stdout) if res.stdout.strip() else {}
        errs = wl.check(res.inp, res.rc, out)
        fields = wl.golden_fields(res.rc, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]
    r, s = map(int, res.inp.key.split("."))
    entry = golden[r * (len(wl.SLOTS) + len(wl.WARMUP)) + s]
    want_in, want_out = entry.split(":")
    if _digest(res.inp.text) != want_in:
        raise BenchmarkError(f"input {res.inp.key} differs from the recorded catalog")
    if _digest(fields) != want_out:
        errs.append("exact fields differ from the seed-commit record")
    return errs


def self_test(wl, golden, res: Result):
    """A deliberately wrong copy of a right answer must count as a failure."""
    wrong = Result(res.inp, res.rc, json.dumps(wl.wrong_answer(json.loads(res.stdout))),
                   0.0, 0.0, None)
    if not judge(wl, golden, wrong):
        raise BenchmarkError("self-test: the checks accepted a wrong answer")


# ---------------------------------------------------------------- metrics


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, plan, seconds, golden):
    gauge = SpeedGauge()

    def timed_set_up():
        cli, secs, more = set_up(wl, plan)
        setups.append((secs, gauge.tick()))
        warm.extend(more)
        return cli

    setups, warm = [], []
    cli = timed_set_up()
    results, at = [], []
    busy = 0.0
    for batch in plan.rounds():
        for inp in batch:
            res = call(cli.run, wl, inp)
            at.append(gauge.tick())
            busy += res.wall
            results.append(res)
        if len(setups) < SETUP_REPEATS:
            # spread the set-up samples over the pass; the timed operations
            # keep using the modules imported first, with their caches
            timed_set_up()
        if busy >= seconds and len(results) >= MIN_SAMPLES:
            break
    while len(setups) < SETUP_REPEATS:
        timed_set_up()
    failures = check_all(wl, golden, results + warm)

    def figures(scales, setup_scales):
        walls = [r.wall * f for r, f in zip(results, scales)]
        cpu = sum(r.cpu * f for r, f in zip(results, scales))
        return {
            "throughput_ops_s": metric(len(results) / sum(walls), "ops/s"),
            "cpu_ms_per_op": metric(1000 * cpu / len(results), "ms"),
            "latency_p50_ms": metric(1000 * statistics.median(walls), "ms"),
            "latency_p90_ms": metric(1000 * statistics.quantiles(walls, n=10)[8], "ms"),
            "setup_s": metric(statistics.median(
                secs * f for (secs, _), f in zip(setups, setup_scales)), "s"),
        }

    metrics = figures([gauge.scale(i) for i in at], [gauge.scale(i) for _, i in setups])
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    unscaled = figures([1.0] * len(results), [1.0] * len(setups))
    info = {"latency_samples": len(results), "setup_samples": len(setups),
            "reference_ms_median": 1000 * statistics.median(gauge.samples),
            "unscaled": {k: v["value"] for k, v in unscaled.items()}}
    return results + warm, failures, metrics, info


def per_layer(wl, plan, golden, trace_path):
    inputs = []
    rounds = plan.rounds()
    for _ in range(wl.TRACE_ROUNDS):
        inputs.extend(next(rounds))
    # Two imports, each with its own caches: the first stays untraced, the
    # second is traced.  Each input runs on both, one after the other, so
    # both see the same cache history and the same machine noise.
    plain_cli, _, warm = set_up(wl, plan)
    cli, _, warm2 = set_up(wl, plan)
    lattice = sys.modules["blockbounds.lattice"]
    cache = getattr(lattice, "_form_minimum_cached", None)
    tracer = Tracer()
    tracer.install()
    hits = misses = 0
    lll_ns = enum_ns = 0
    plain, traced = [], []
    for op, inp in enumerate(inputs):
        plain.append(call(plain_cli.run, wl, inp))
        before = cache.cache_info() if cache else None
        tracer.op, tracer.active = op, True
        traced.append(call(cli.run, wl, inp))
        tracer.active = False
        if cache:
            after = cache.cache_info()
            hits += after.hits - before.hits
            misses += after.misses - before.misses
        if wl.name == "lattice-min":
            lll_ns, enum_ns = time_lattice_split(tracer, inp, lll_ns, enum_ns)
    tracer.uninstall()
    tracer.write(trace_path)
    failures = check_all(wl, golden, plain + traced + warm + warm2)
    n = len(inputs)
    fig, bad = tracer.summarize([r.wall for r in traced])
    if bad:
        raise BenchmarkError(f"self times do not sum to the wall time in ops {bad[:5]}")
    if wl.name == "lattice-min" and hits:
        raise BenchmarkError("lattice-min hit the form-minimum cache; its inputs "
                             "must all be new to the program")
    cpu_plain = sum(r.cpu for r in plain)
    cpu_traced = sum(r.cpu for r in traced)
    ms = "ms"
    out = {f"{m}.self_ms": metric(fig["self"].get(m, 0.0), ms)
           for m in ("cli", "bounds", "weights", "lattice", "exactmat", "gendec")}
    incl = {
        "bounds": ("compare_all", "classical_bounds", "kw_bound", "inverse_cartan_bound",
                   "subsection_k_bound", "subsection_k0_bound"),
        "weights": ("weight_candidates", "symmetrize"),
        "lattice": ("form_minimum", "certify_integral_positive_definite"),
        "exactmat": ("matmul", "inverse", "determinant", "elementary_divisors", "rank",
                     "is_positive_definite"),
        "gendec": ("fourier_split", "verify_orthogonality", "verify_gram_identity",
                   "rank_check", "height_zero_valuation_check"),
    }
    for mod, names in incl.items():
        for name in names:
            out[f"{mod}.{name}.ms"] = metric(fig["incl"].get(f"{mod}.{name}", 0.0), ms)
    calls = fig["calls"]
    out["weights.certified_weight.calls"] = metric(calls.get("weights.certified_weight", 0), "count")
    out["weights.certified_weight.self_ms"] = metric(
        fig["self"].get("weights.certified_weight", 0.0), ms)
    out["lattice.form_minimum.calls"] = metric(calls.get("lattice.form_minimum", 0), "count")
    out["lattice.form_minimum.cache_hit_ratio"] = metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    out["lattice.minimizers.sum"] = metric(tracer.minimizers, "count")
    out["lattice.lll_reduce.ms"] = metric(lll_ns * 1e-6 / n, ms)
    out["lattice.enum_only.ms"] = metric(enum_ns * 1e-6 / n, ms)
    out["exactmat.matmul.calls"] = metric(calls.get("exactmat.matmul", 0), "count")
    out["exactmat.RationalMatrix.constructed"] = metric(
        calls.get("exactmat.RationalMatrix", 0), "count")
    for name in ("gendec.cyclotomic_mul.calls", "gendec.galois.calls"):
        out[name] = metric(tracer.counts.get(name, 0), "count")
    out["traced_ops"] = metric(n, "count")
    out["tracing_overhead"] = metric(cpu_traced / cpu_plain, "ratio")
    info = {"spans": trace_path, "self_time_gap_max": fig["max_gap"]}
    return plain + traced + warm + warm2, failures, out, info


def time_lattice_split(tracer, inp, lll_ns, enum_ns):
    """LLL alone on the operation's input, then the minimum search on the
    LLL-reduced copy, bypassing the cache so that nothing is served twice."""
    exactmat = sys.modules["blockbounds.exactmat"]
    lattice = sys.modules["blockbounds.lattice"]
    matrix = exactmat.matrix_from_record(json.loads(inp.text))
    lll = tracer.originals.get("lattice.lll_reduce", lattice.lll_reduce)
    t0 = time.perf_counter_ns()
    _, reduced = lll(matrix)
    t1 = time.perf_counter_ns()
    search = getattr(getattr(lattice, "_form_minimum_cached", None), "__wrapped__", None)
    if search is None:
        search = tracer.originals.get("lattice.form_minimum", lattice.form_minimum)
    found = search(reduced)
    t2 = time.perf_counter_ns()
    if str(found.value) != inp.expect.get("minimum", str(found.value)):
        raise BenchmarkError(f"minimum of the reduced copy of {inp.key} changed")
    return lll_ns + t1 - t0, enum_ns + t2 - t1


def check_all(wl, golden, results) -> int:
    """Judge every operation, warm-up ones included; returns the failures."""
    failures = 0
    right = None
    for res in results:
        errs = judge(wl, golden, res)
        if errs:
            failures += 1
            print(f"FAILED {res.inp.key} ({res.inp.family}): {'; '.join(errs)}",
                  file=sys.stderr)
        elif right is None:
            right = res
    if right is not None:
        self_test(wl, golden, right)
    return failures


# ------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "blockbounds", "cli.py")):
        print("error: no src/blockbounds here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    wl = WORKLOADS[args.workload]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    work = os.path.join(root, OUT_DIR, f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        golden = load_golden(wl)
        plan = Plan(wl, args.seed, work)
        if args.trace:
            trace_path = os.path.join(root, OUT_DIR, f"{wl.name}-{args.seed}.spans.csv.gz")
            results, failures, metrics, info = per_layer(wl, plan, golden, trace_path)
        else:
            results, failures, metrics, info = end_to_end(wl, plan, args.seconds, golden)
        mod = sys.modules["blockbounds"].__file__
        if not os.path.abspath(mod).startswith(src + os.sep):
            raise BenchmarkError(f"measured {mod}, not the checkout's sources")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
    n = len(results)
    print(json.dumps({
        "workload": wl.name,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "inputs_sha256": plan.digest.hexdigest(),
        "rounds_skipped_for_repeats": plan.skipped,
        "failed_frac": failures / n,
        **info,
    }, sort_keys=True))
    print(json.dumps({"correct": failures == 0, "attempted": n, "failed": failures,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
