"""Run the benchmark in two checkouts in alternating pairs and summarize.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \
        --pairs N --seed S --seconds T --out FILE

Pair i runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` in PARENT_DIR first when i is even and in CHANGE_DIR first
when i is odd (first_side), one process at a time.  Each checkout runs
its own perfbench/ and src/.  The summary goes into FILE as its
`workloads.<W>` entry, which keeps the rest of an existing FILE, so one
FILE collects the workloads of a BENCH_<label>.json:

    pairs          the number of pairs run
    parent/change  per side: git_sha and src_diffmod_lines (from the meta
                   line), executions and fail_share per run, and for each
                   end-to-end metric its runs, median and quartiles
    change_wins    per metric, the pairs in which the change read better
                   (ties count for neither side)
    first_run_wins per metric, the pairs in which the run that went first
                   read better, whichever side it was: near pairs / 2
                   when the order of a pair does not bias it
    median_ratio_change_over_parent
                   per metric, change median / parent median
    unresolved     the metrics too noisy to judge: the parent's quartile
                   spread (q3 - q1) exceeds the metric's bound times the
                   parent median, and not every change run beats every
                   parent run
    claim_met      per metric, whether a claimed gain holds: the change
                   wins at least 9 in 10 of the pairs, and its median is
                   better than the parent's by more than the parent's
                   quartile spread (q3 - q1)

Which direction is better, and each metric's bound, come from
CHANGE_DIR/BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds):
    """One run of the checkout's benchmark: see parse_run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0 or not run.stdout.splitlines():
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{run.returncode}:\n{run.stderr[-2000:]}")
    return parse_run(run.stdout, checkout)


def parse_run(stdout, checkout):
    """The final JSON line of a run's standard output, with the meta line
    under "meta".  A run whose outputs failed their checks exits 0 with
    "correct" false; its timings measure a wrong program, so it raises."""
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RuntimeError(f"the benchmark in {checkout} gave wrong outputs "
                           f"(correct: {result.get('correct')!r})")
    meta = [ln[5:] for ln in lines if ln.startswith("meta ")]
    result["meta"] = json.loads(meta[-1]) if meta else {}
    return result


def first_side(i):
    """The side that runs first in pair i."""
    return "parent" if i % 2 == 0 else "change"


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _side(runs, names):
    meta = runs[0]["meta"]
    out = {"git_sha": meta.get("git_sha"),
           "src_diffmod_lines": meta.get("src_diffmod_lines"),
           "executions": [r["attempted"] for r in runs],
           "fail_share": [r["failed"] / r["attempted"] for r in runs]}
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = _quartiles(values)
        out[name] = {"median": round(statistics.median(values), 4),
                     "q1": round(q1, 4), "q3": round(q3, 4),
                     "runs": [round(v, 4) for v in values]}
    return out


def summarize(parent_runs, change_runs, better, bounds=None):
    """The workload entry of a BENCH file from paired runs.

    parent_runs[i] and change_runs[i] form pair i; each is the final JSON
    line of perfbench/run.py with its meta line under "meta".  better maps
    each end-to-end metric to "lower" or "higher", and bounds maps a
    metric to its bound, a share of the parent median; a metric without
    one is never unresolved.
    """
    if len(parent_runs) != len(change_runs) or not parent_runs:
        raise ValueError("need the same nonzero number of runs per side")
    names = list(better)
    parent, change = _side(parent_runs, names), _side(change_runs, names)
    wins, first_wins, ratios, unresolved, claim = {}, {}, {}, [], {}
    for name in names:
        sign = 1 if better[name] == "lower" else -1
        pairs = list(zip(parent[name]["runs"], change[name]["runs"]))
        wins[name] = sum(1 for p, c in pairs if sign * (p - c) > 0)
        in_run_order = [(p, c) if first_side(i) == "parent" else (c, p)
                        for i, (p, c) in enumerate(pairs)]
        first_wins[name] = sum(1 for a, b in in_run_order if sign * (b - a) > 0)
        base = parent[name]["median"]
        ratios[name] = round(change[name]["median"] / base, 4) if base else None
        spread = parent[name]["q3"] - parent[name]["q1"]
        gap = sign * (base - change[name]["median"])
        claim[name] = 10 * wins[name] >= 9 * len(pairs) and gap > spread
        apart = all(sign * (p - c) > 0 for p in parent[name]["runs"]
                    for c in change[name]["runs"])
        bound = (bounds or {}).get(name)
        if bound is not None and spread > bound * abs(base) and not apart:
            unresolved.append(name)
    return {"pairs": len(parent_runs), "parent": parent, "change": change,
            "change_wins": wins, "first_run_wins": first_wins,
            "median_ratio_change_over_parent": ratios,
            "unresolved": unresolved, "claim_met": claim}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def main(argv):
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]
              if "bound" in m}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = (("parent", "change") if first_side(i) == "parent"
                 else ("change", "parent"))
        for side in order:
            result = run_once(getattr(args, side), args.workload, args.seed,
                              args.seconds)
            runs[side].append(result)
            shown = "  ".join(f"{k} {m['value']:.4g}"
                              for k, m in result["metrics"].items())
            print(f"pair {i} {side:6}  {shown}", flush=True)
    entry = summarize(runs["parent"], runs["change"], better, bounds)
    doc = (json.loads(args.out.read_text()) if args.out.exists() else {})
    doc.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wins {entry['change_wins']}  "
          f"first-run wins {entry['first_run_wins']}  "
          f"ratios {entry['median_ratio_change_over_parent']}  "
          f"unresolved {entry['unresolved']}  "
          f"claim met {entry['claim_met']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
