#!/usr/bin/env python3
"""Alternating A/B pairs of histbench runs: a parent revision against a change.

    python3 scripts/ab_pairs.py --parent <rev> --workload cold_point|all \\
        [--change <rev>|.] [--seeds 1-10] [--seconds 20] [--out runs.json]

Each side is checked out under target/ab/<name>/ (a plain `git archive`
export of the revision; `--change .` builds the working tree as it is) and
histbench is built there in release mode. Then, per seed, both sides run
the workload once, alternating which side goes first, so drift of the
machine lands on both; `--workload all` does this for every workload of
BENCHMARK.json in turn. The script prints, per workload and end-to-end
metric: the median and quartiles of each side, how many pairs each side
won, the change of the medians, and the metric's bound. A metric whose
median is worse than its bound is flagged OUT OF BOUND. One inside its
bound is flagged UNRESOLVED when the parent's own spread (IQR over median)
is wider than the bound, unless every run of the change reads better than
every run of the parent. The exit status is 1 when any metric is OUT OF
BOUND or the change failed more operations than the parent, else 0. It
reads BENCHMARK.json and never writes it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def checkout(rev, name):
    """Exports `rev` to target/ab/<name>/ (once) and returns the directory."""
    if rev == ".":
        return ROOT
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, "target", "ab", f"{name}-{sha[:12]}")
    if not os.path.isdir(path):
        os.makedirs(path)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            sys.exit(f"git archive {rev} failed")
    return path


def build(path, name):
    """Builds histbench in `path`; returns the binary."""
    target = os.path.join(ROOT, "target", "ab", f"{name}-target") if path == ROOT else None
    env = dict(os.environ)
    if target:
        env["CARGO_TARGET_DIR"] = target
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "histbench/Cargo.toml"],
        cwd=path,
        env=env,
        check=True,
    )
    out = target or os.path.join(path, "histbench", "target")
    return os.path.join(out, "release", "histbench")


def run_once(binary, cwd, workload, seed, seconds):
    """One histbench run; returns (metrics dict name -> value, failed)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result.get("failed", 0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload, runs, metrics):
    """Prints one workload's table; returns whether it fails the no-regression
    rule: a metric out of its bound, or more failed operations than the
    parent."""
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    print(f"{workload}: {len(runs['parent'])} pairs")
    print(f"failed: parent {failed['parent']}, change {failed['change']}"
          f"{'  MORE FAILURES' if failed['change'] > failed['parent'] else ''}")
    header = f"{'metric':<24} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}" \
             f" {'wins p/c':>9} {'median':>8} {'bound':>6}"
    print(header)
    bad = failed["change"] > failed["parent"]
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pv = [r["metrics"][name] for r in runs["parent"] if name in r["metrics"]]
        cv = [r["metrics"][name] for r in runs["change"] if name in r["metrics"]]
        if not pv or len(pv) != len(cv):
            continue
        pq, cq = quartiles(pv), quartiles(cv)
        change_wins = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        parent_wins = sum((p < c) if lower else (p > c) for p, c in zip(pv, cv))
        rel = (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0
        worse = rel > m["bound"] if lower else -rel > m["bound"]
        # The simplicity-review rule: where the parent's own spread is wider
        # than the bound, a metric inside the bound is unresolved unless
        # every change run reads better than every parent run.
        spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
        all_better = max(cv) < min(pv) if lower else min(cv) > max(pv)
        flag = "  OUT OF BOUND" if worse else (
            "  UNRESOLVED" if spread > m["bound"] and not all_better else "")
        bad |= worse
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        wins = f"{parent_wins}/{change_wins}"
        print(f"{name:<24} {fmt(pq):>30} {fmt(cq):>30} {wins:>9} {rel:>+8.1%}"
              f" {m['bound']:>6.0%}{flag}")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="revision measured as the parent")
    ap.add_argument("--change", default=".", help="revision of the change ('.' = working tree)")
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json, or 'all' for every one")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", help="also write every run here as JSON")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if not set(workloads) <= set(names):
        sys.exit(f"unknown workload {args.workload!r}; one of {', '.join(names)} or all")

    sides = {}
    for name, rev in (("parent", args.parent), ("change", args.change)):
        path = checkout(rev, name)
        sides[name] = (build(path, name), path)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for name in order:
                binary, cwd = sides[name]
                values, failed = run_once(binary, cwd, workload, seed, args.seconds)
                runs[workload][name].append({"seed": seed, "failed": failed, "metrics": values})
                print(f"{workload} seed {seed} {name}: failed={failed} "
                      f"lat_p50_us={values.get('lat_p50_us', float('nan')):.0f}",
                      file=sys.stderr)

    print(f"{args.parent} -> {args.change}")
    bad = False
    for workload in workloads:
        bad |= report(workload, runs[workload], bench["end_to_end"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"parent": args.parent, "change": args.change, "runs": runs},
                      f, indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
