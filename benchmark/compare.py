#!/usr/bin/env python3
"""Collect benchmark result sets and compare two of them.

A result set is a JSON-lines file: one line per run,
{"workload", "seed", "trace", "result"} with `result` the object a run prints
as its last line.

  compare.py collect OUT.jsonl [--runs 10] [--seed0 1] [--trace 0|1|both]
                               [--workloads a,b] [--seconds N] [--append]
      run every workload `runs` times, seeds seed0, seed0+1, ...; run i of
      every workload precedes run i+1 of any, so two sets collected in
      alternation (A, B, A, B with --append) interleave in time.

  compare.py spread SET.jsonl
      the contract's steadiness check on one set: for each workload x
      end-to-end metric the distance between the quartiles as a share of the
      median, against the metric's bound.

  compare.py diff BASE.jsonl NEW.jsonl
      one row per workload x metric: median and quartiles of both sets, the
      ratio new/base, and a verdict by the choosing-metrics rule:
        improved    new wins >= 9/10 of the pairs (ties count for neither)
                    and the medians differ by more than base's IQR
        REGRESSED   new's median is worse than base's by more than the bound
        unresolved  not regressed, but a set's spread is wider than the bound
        unchanged   otherwise
      Per-layer metrics have no bound; they get improved/worse/- only, and
      counts that repeat exactly are compared as counts.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def load(path):
    """{(workload, metric): [value per run, in file order]} and units."""
    series, units = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            result = run["result"]
            key_ops = (run["workload"], "ops_failed")
            if run["trace"] == 0:
                series.setdefault(key_ops, []).append(result["failed"])
                units["ops_failed"] = "count"
            for name, m in result["metrics"].items():
                series.setdefault((run["workload"], name), []).append(m["value"])
                units[name] = m["unit"]
    return series, units


def collect(args):
    spec = contract()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    traces = {"0": [0], "1": [1], "both": [0, 1]}[args.trace]
    seconds = args.seconds or spec["run_seconds"]
    with open(args.out, "a" if args.append else "w") as out:
        for i in range(args.runs):
            seed = args.seed0 + i
            for workload in workloads:
                for trace in traces:
                    cmd = spec["command"] + [
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                    ]
                    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                    if done.returncode != 0:
                        sys.exit(f"{' '.join(cmd)}: exit {done.returncode}")
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    line = {"workload": workload, "seed": seed, "trace": trace, "result": result}
                    out.write(json.dumps(line) + "\n")
                    out.flush()
                    print(f"{workload} seed {seed} trace {trace}: "
                          f"{result['attempted']} ops, {result['failed']} failed", file=sys.stderr)


def show_spread(args):
    spec = contract()
    series, _ = load(args.set)
    worst = 0.0
    print(f"{'workload':<18} {'metric':<12} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            values = series.get((w["name"], m["name"]))
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            # The driver wants every spread but setup_s's within the bound;
            # a third of the bound is the margin to aim for.
            verdict = "ok" if s <= m["bound"] / 3 else ("within bound" if s <= m["bound"] else "TOO WIDE")
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{w['name']:<18} {m['name']:<12} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {s:>8.4f} {m['bound']:>6}  {verdict}")
        failed = sum(series.get((w["name"], "ops_failed"), []))
        if failed:
            print(f"{w['name']:<18} ops failed: {failed}")
    print(f"worst spread/bound outside setup_s: {worst:.2f}")


def verdict_for(base, new, better, bound):
    pairs = list(zip(base, new))
    sign = 1 if better == "lower" else -1
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    losses = sum(1 for b, n in pairs if sign * (b - n) < 0)
    bq1, bmed, bq3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    gap = sign * (bmed - nmed)  # positive: new is better
    clear = abs(gap) > (bq3 - bq1)
    if bound is None:
        if pairs and wins >= 0.9 * len(pairs) and clear:
            return "improved"
        if pairs and losses >= 0.9 * len(pairs) and clear:
            return "worse"
        return "-"
    if bmed and -gap / abs(bmed) > bound:
        return "REGRESSED"
    if pairs and wins >= 0.9 * len(pairs) and clear:
        return "improved"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    return "unchanged"


def diff(args):
    spec = contract()
    base, units = load(args.base)
    new, new_units = load(args.new)
    units.update(new_units)
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in spec["per_layer"]]
    print(f"{'workload':<18} {'metric':<30} {'unit':<6} {'base med [q1, q3]':>38} {'new med [q1, q3]':>38} {'new/base':>9}  verdict")
    for w in spec["workloads"]:
        for name, better, bound in metrics:
            b, n = base.get((w["name"], name)), new.get((w["name"], name))
            if not b or not n or (not any(b) and not any(n)):
                continue
            bq1, bmed, bq3 = quartiles(b)
            nq1, nmed, nq3 = quartiles(n)
            exact = len(set(b)) == 1 and len(set(n)) == 1
            if exact and bound is None:
                verdict = "same count" if b[0] == n[0] else "COUNT CHANGED"
            else:
                verdict = verdict_for(b, n, better, bound)
            ratio = f"{nmed / bmed:9.4f}" if bmed else "        -"
            print(f"{w['name']:<18} {name:<30} {units.get(name, ''):<6} "
                  f"{bmed:>14.6g} [{bq1:>9.4g}, {bq3:>9.4g}] {nmed:>14.6g} [{nq1:>9.4g}, {nq3:>9.4g}] {ratio}  {verdict}")
        bf = sum(base.get((w["name"], "ops_failed"), []))
        nf = sum(new.get((w["name"], "ops_failed"), []))
        if bf or nf:
            print(f"{w['name']:<18} ops failed: base {bf}, new {nf}"
                  + ("  (a gain does not count with more failures)" if nf > bf else ""))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("out")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--trace", choices=["0", "1", "both"], default="0")
    c.add_argument("--workloads", default="")
    c.add_argument("--seconds", type=int, default=0)
    c.add_argument("--append", action="store_true")
    c.set_defaults(fn=collect)
    s = sub.add_parser("spread")
    s.add_argument("set")
    s.set_defaults(fn=show_spread)
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    d.set_defaults(fn=diff)
    args = p.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
