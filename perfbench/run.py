"""diffmod benchmark: one closed-loop client, one process, one core.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it runs one untraced pass and then
traced passes, and reports per-layer counts and self times per pass.
Human-readable lines come first; the last line of standard output is the
JSON result.  A full report, with the metadata, every operation's
latency and the per-operation layer breakdown, goes to
perfbench/out/<workload>-seed<seed>-trace<t>.json.

Cache policy: sympy's process-wide cache is cleared and the garbage
collector run before every operation, so each operation starts cold, as
one CLI command does, and its time does not depend on the operations
before it.  One untimed warm-up operation runs before the first pass so
that lazy imports inside sympy are done before timing starts.

The first pass runs every operation once, in an order drawn from the
seed.  Later schedules run every operation again, the cheap ones in
rounds spread over the rest of the run, and stop when --seconds have
elapsed.  An operation's latency is the median of its executions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7     # fresh interpreters timed for setup_s; the median counts
TAIL_BEYOND = 10     # samples a tail percentile must have beyond it
MAX_REPEATS = 8      # extra runs per op in one schedule after the first pass
SPREAD_S = 0.5       # ops cheaper than this run once per round of a schedule


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import, prepare the workload's inputs and exit "
                        "(the process timed for setup_s)")
    return p.parse_args(argv)


def import_diffmod():
    """Import the checkout's own diffmod, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import diffmod
    if Path(diffmod.__file__).resolve().parent != (SRC / "diffmod").resolve():
        sys.exit(f"imported diffmod from {diffmod.__file__}, not from {SRC}")
    import workloads
    return workloads


def prepare(workloads, name, seed, workdir):
    if name not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {name!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name](seed, workdir)


def measure_setup(args):
    """Median time of fresh interpreters from start to ready.

    Each child prints the monotonic clock (system-wide on Linux) when it
    is ready, so neither its exit nor the parent's wait for it is timed.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.run(cmd, check=True, cwd=ROOT, timeout=120,
                               stdout=subprocess.PIPE, text=True)
        times.append(float(child.stdout.split()[-1]) - t0)
    return statistics.median(times), times


# ---------------------------------------------------------------------------
# the closed loop

class ClosedLoop:
    """One client that sends the next operation when the last one is done.

    Every execution is timed on its own and its output checked outside the
    timed region; an exception raised by an op is its failure.
    """

    def __init__(self, ops, references, clear_cache):
        self.ops = ops
        self.references = references
        self.clear_cache = clear_cache
        self.samples = [[] for _ in ops]
        self.attempted = 0
        self.failures = {}          # op index -> problems of each failed run

    def run(self, order, deadline=None, tracer=None):
        """Run ops in `order`; stop early once `deadline` has passed."""
        for k in order:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            self.clear_cache()
            gc.collect()
            if tracer is not None:
                tracer.begin_op(k)
            t0 = time.perf_counter()
            try:
                out = self.ops[k].run()
            except Exception as exc:  # a raising op is a failed op, not a crash
                out = exc
            self.samples[k].append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.begin_op(None)
            self.attempted += 1
            problems = self._check(k, out)
            if problems:
                self.failures.setdefault(k, []).append(problems)

    def _check(self, k, out):
        if isinstance(out, Exception):
            return [f"raised {type(out).__name__}: {out}"]
        try:
            return self.ops[k].check(out, self.references[k])
        except Exception as exc:  # a check that cannot read the output fails
            return [f"check raised {type(exc).__name__}: {exc}"]

    def extra_samples(self):
        """Schedule after the first pass.  The j-th extra run of an op is
        due at j * max(latency, SPREAD_S): every op cheaper than SPREAD_S
        runs once per round, so its samples spread over the whole run,
        and dearer ops run less often."""
        queue = [(j * max(t, SPREAD_S), k)
                 for k, t in enumerate(self.latencies())
                 for j in range(1, MAX_REPEATS + 1)]
        return [k for _, k in sorted(queue)]

    def latencies(self):
        """Each op's latency: the median of its executions."""
        return [statistics.median(lat) for lat in self.samples]


def tail(values):
    """(value, percentile, samples) of the highest percentile that has at
    least TAIL_BEYOND samples beyond it: the (TAIL_BEYOND+1)-th largest.
    With too few samples for any percentile above p50 the slowest sample
    stands in, reported as p100."""
    ordered = sorted(values)
    n = len(ordered)
    if n - TAIL_BEYOND <= n / 2:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def probe_defects(workloads, name, clear_cache):
    """Run each known-defect probe of the workload once, untimed and
    outside the workload's counts: label -> defect and problems, which
    are empty once the defect is fixed."""
    found = {}
    for op in workloads.DEFECT_PROBES.get(name, []):
        clear_cache()
        try:
            out = op.run()
            problems = op.check(out, op.make_reference())
        except Exception as exc:
            problems = [f"raised {type(exc).__name__}: {exc}"]
        found[op.label] = {"defect": op.known_failure, "problems": problems}
    return found


# ---------------------------------------------------------------------------
# metadata

def git_sha():
    """Commit of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args):
    import sympy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "diffmod").glob("*.py")))
    return {"git_sha": git_sha(), "python": sys.version.split()[0],
            "sympy": sympy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace,
            "src_diffmod_lines": src_lines}


# ---------------------------------------------------------------------------
# main

def layer_metrics(tracer):
    """Per-layer metrics of one traced pass."""
    totals, per_op, reduced = tracer.summary()
    c = tracer.counters

    def calls(layer):
        return totals[layer]["calls"] if layer in totals else 0

    def self_s(layer):
        return totals[layer]["self_s"] if layer in totals else 0.0

    def share(counter, layer):
        return c[counter] / calls(layer) if calls(layer) else 0.0

    completes = calls("janet.complete")
    m = {}
    for layer in ("dsl", "field.normalize", "field.pivot", "field.factor",
                  "ops.compose", "ops.adjoint", "janet.complete",
                  "janet.reduce", "syzygy", "duality", "spencer.rank"):
        m[f"{layer}.calls"] = (calls(layer), "count")
        m[f"{layer}.self_s"] = (self_s(layer), "s")
    m["janet.complete.repeat_share"] = (
        share("janet.complete.repeats", "janet.complete"), "share")
    m["janet.prolong.useful_ratio"] = (
        c["janet.adds"] / reduced if reduced else 0.0, "ratio")
    m["janet.basis_rows"] = (
        c["janet.basis_rows"] / completes if completes else 0.0, "rows")
    m["spencer.rank.entries"] = (c["spencer.rank.entries"], "count")
    m["spencer.prolong.repeat_share"] = (
        share("spencer.prolong.repeats", "spencer.prolong"), "share")
    m["spencer.self_s"] = (self_s("spencer"), "s")
    m["corpus.self_s"] = (self_s("corpus"), "s")
    per_op_rows = {op: {layer: dict(v) for layer, v in layers.items()}
                   for op, layers in per_op.items()}
    return m, per_op_rows, len(tracer.start)


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    if not (SRC / "diffmod" / "__init__.py").is_file():
        sys.exit(f"diffmod sources not found under {SRC}")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    if args.setup_only:
        prepare(import_diffmod(), args.workload, args.seed, workdir)
        print(time.perf_counter())
        return 0
    setup = measure_setup(args) if args.trace == 0 else None
    workloads = import_diffmod()
    from sympy.core.cache import clear_cache

    ops = prepare(workloads, args.workload, args.seed, workdir)
    references = [op.make_reference() for op in ops]
    clear_cache()
    ops[0].run()                                    # untimed warm-up
    gc.collect()
    gc.freeze()       # set-up objects stay out of every later collection
    rng = random.Random(args.seed)

    def full_pass():
        return rng.sample(range(len(ops)), len(ops))

    # The first pass runs every op once; later schedules run the ops again
    # and stop at the deadline.  A traced run instead follows its first,
    # untraced pass with whole traced passes, which give per-pass counts.
    deadline = time.perf_counter() + args.seconds
    loop = ClosedLoop(ops, references, clear_cache)
    loop.run(full_pass())
    loops = [loop]
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        traced = ClosedLoop(ops, references, clear_cache)
        loops.append(traced)
        traced_layers = []
        pass_s = 0.0
        # a pass starts only if one as long as the last still ends in time
        while not traced_layers or time.perf_counter() + pass_s < deadline:
            t0 = time.perf_counter()
            tracer.reset()
            with tracer:
                traced.run(full_pass(), tracer=tracer)
            traced_layers.append(layer_metrics(tracer))
            pass_s = time.perf_counter() - t0
    else:
        while time.perf_counter() < deadline:
            loop.run(loop.extra_samples(), deadline)

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(len(p) for lp in loops for p in lp.failures.values())
    problems = {ops[k].label: lp.failures[k][-1]
                for lp in loops for k in lp.failures}

    per_op_ms = [1000 * t for t in loop.latencies()]
    wall = sum(loop.latencies())
    tail_ms, tail_pct, tail_n = tail(per_op_ms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    defects = probe_defects(workloads, args.workload, clear_cache)

    meta = metadata(args)
    meta.update(ops=len(ops), executions=attempted,
                op_tail_percentile=round(tail_pct, 1), op_tail_samples=tail_n,
                fail_share=failed / attempted,
                cache_policy="sympy cache cleared and garbage collected "
                             "before every operation")
    report = {"meta": meta,
              "ops": [{"label": op.label, "latency_ms": ms,
                       "samples": len(lat)}
                      for op, ms, lat in zip(ops, per_op_ms, loop.samples)],
              "known_defects": defects,
              "failures": problems}

    if args.trace:
        metrics = {}
        for name, (_, unit) in traced_layers[0][0].items():
            values = [layers[name][0] for layers, _, _ in traced_layers]
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": sum(traced.latencies()) - wall, "unit": "s"}
        per_op_layers = traced_layers[0][1]
        report["trace"] = {
            "traced_passes": len(traced_layers),
            "spans_per_pass": traced_layers[0][2],
            "per_op": {ops[k].label: layers
                       for k, layers in sorted(per_op_layers.items())}}
    else:
        metrics = {
            "setup_s": {"value": setup[0], "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(per_op_ms), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        report["setup_probes_s"] = setup[1]
    report["metrics"] = metrics
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, default=str))

    print(f"workload {args.workload}  seed {args.seed}  ops {len(ops)}  "
          f"executions {attempted}  sha {meta['git_sha'][:12]}  "
          f"src/diffmod {meta['src_diffmod_lines']} lines")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"  op_tail_ms is p{tail_pct:.1f} of {tail_n} op latencies")
    print(f"  {'fail_share':32s} {failed / attempted:14.6g} share "
          f"({failed} of {attempted} executions)")
    for label in sorted(problems):
        print(f"  FAILED {label}: {'; '.join(problems[label])}")
    for label, d in defects.items():
        state = ("still shows: " + "; ".join(d["problems"]) if d["problems"]
                 else "no longer shows")
        print(f"  known defect probe {label}, {state} [{d['defect']}]")
    print(f"  report: {out_file.relative_to(ROOT)}")
    print("meta " + json.dumps(meta))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
