#!/usr/bin/env python3
"""Steadiness record for the benchmark.

Runs the benchmark command from BENCHMARK.json several times per workload,
each run on another seed, and prints for every end-to-end metric the median,
the first and third quartile, and the spread (third minus first quartile, as
a share of the median) beside the metric's bound. Every run's host core count
and load average is listed too.

    python3 perfbench/steady.py [--runs 10] [--out PATH]

Seeds run from 1, every workload of BENCHMARK.json is measured, and each run
lasts its run_seconds. Run it from anywhere; it runs the benchmark from the
repository root. The record goes to stdout, or to --out.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    host = next((l.strip() for l in lines if l.strip().startswith("host:")), "host: unknown")
    return json.loads(lines[-1]), host


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(1, 1 + args.runs)

    out = [f"# Steadiness: {args.runs} runs per workload, seeds {seeds.start}-{seeds.stop - 1}, "
           f"{seconds} s per run", ""]
    for name in names:
        runs = []
        for seed in seeds:
            result, host = run_once(bench, name, seed, seconds)
            runs.append((seed, result, host))
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}; {host}",
                  file=sys.stderr)
        out += [f"## {name}", "",
                "| metric | unit | median | q1 | q3 | spread | bound | spread < bound/3 |",
                "|---|---|---|---|---|---|---|---|"]
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for _, r, _ in runs]
            med, q1, q3, s = spread(values)
            steady = "yes" if s < m["bound"] / 3 else "NO"
            out.append(f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                       f"{s:.4f} | {m['bound']} | {steady} |")
        out += ["", "| seed | correct | attempted | failed | host |", "|---|---|---|---|---|"]
        out += [f"| {seed} | {r['correct']} | {r['attempted']} | {r['failed']} | {host} |"
                for seed, r, host in runs]
        out.append("")
    text = "\n".join(out)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
