#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

Runs the benchmark once per seed on each workload, one run at a time,
and prints for every metric its median, first and third quartile and
the quartile spread as a share of the median (the figure each metric's
bound in BENCHMARK.json must stay above). The runs and the summary are
stored as one named set in e2ebench/steadiness.json, replacing a set of
that name. Run from the repository root:

    python3 e2ebench/steady.py --set set1 --first-seed 101
    python3 e2ebench/steady.py --set traced --first-seed 201 --runs 3 --trace 1
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

COMMAND = ["bash", "e2ebench/run.sh"]
WORKLOADS = ["plan-cold", "step-warm", "fleet"]
EVIDENCE = "e2ebench/steadiness.json"


def run_once(workload, seed, seconds, trace):
    args = COMMAND + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs, units):
    out = {}
    for name in sorted(units):
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        med = statistics.median(values)
        out[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--set", required=True, help="name the runs are stored under")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0)
    a = ap.parse_args()

    report = {}
    for w in WORKLOADS:
        runs, units = [], {}
        for k in range(a.runs):
            seed = a.first_seed + k
            r = run_once(w, seed, a.seconds, a.trace)
            if not r["correct"] or r["failed"]:
                raise SystemExit(f"{w} seed {seed}: incorrect result {r}")
            units = {n: m["unit"] for n, m in r["metrics"].items()}
            row = {"seed": seed, "correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"]}
            row.update({n: m["value"] for n, m in sorted(r["metrics"].items())})
            runs.append(row)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in sorted(r["metrics"].items())), flush=True)
        summary = summarize(runs, units)
        report[w] = {"runs": runs, "summary": summary}
        print(f"\n{w}: {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for n, s in summary.items():
            print(f"{w}: {n:<26} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.2%}")
        print(flush=True)

    evidence = {}
    if os.path.exists(EVIDENCE):
        with open(EVIDENCE) as f:
            evidence = json.load(f)
    evidence[a.set] = report
    with open(EVIDENCE, "w") as f:
        f.write("{\n" + ",\n".join(f" {json.dumps(k)}: " + dump_set(v) for k, v in evidence.items()) + "\n}\n")


def dump_set(report):
    """Formats one set with a line per run, as steadiness.json is laid out."""
    parts = []
    for w, rep in report.items():
        runs = ",\n".join("    " + json.dumps(r) for r in rep["runs"])
        summ = ",\n".join(f"    {json.dumps(n)}: {json.dumps(s)}" for n, s in rep["summary"].items())
        parts.append(f'  {json.dumps(w)}: {{\n   "runs": [\n{runs}\n   ],\n   "summary": {{\n{summ}\n   }}\n  }}')
    return "{\n" + ",\n".join(parts) + "\n }"


if __name__ == "__main__":
    main()
