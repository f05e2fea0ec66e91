"""Alternating parent/change runs of perfbench, collected into one BENCH JSON file.

Run from anywhere:

    python3 tools/bench_pairs.py --parent ../parent-checkout --change . \
        --workload tik_sweep_ct32 --pairs 10 --out BENCH_7.json

Each pair runs ``perfbench/run.py`` once in each checkout at its default
seed, untraced, for the ``run_seconds`` of the change's ``BENCHMARK.json``;
each run is a fresh process with that checkout as its working directory. Even
pairs run the parent first, odd pairs the change, so a drift of the host's
speed does not favour one side. The two checkouts must hold the same
``perfbench/``, so that both sides are measured by identical benchmark code;
the script compares the bytes of every file there (``__pycache__`` aside)
and exits with status 1, before any run, naming the first file that differs.
Each side's commit is recorded as ``perfbench/run.py`` reports it; an
uncommitted change reports its parent's commit, so each side's ``src/`` is
also recorded under ``sources``, as a SHA-256 over the sorted relative paths
and bytes of its files (``__pycache__`` aside). Equal hashes print a warning
on stderr: the pairs would measure one program twice.
Each side's checkout kind is recorded: a git work tree when it holds a
``.git`` (a directory, or the file of a linked work tree), a plain copy
otherwise. Checkouts of different kinds are refused like a ``perfbench/``
mismatch, with status 1 before any run: such a pair once read ``nn_ct32``
``wall_s`` 3.80 -> 4.07 s on unchanged code (a plain-copy change against a
git-clone parent), where two clones of the same files read 3.82 -> 3.67 s.

The output file keeps one entry per workload; running the script again for
another workload adds that entry and leaves the others. An entry holds
every run's result object (the last line ``perfbench/run.py`` prints) and,
per end-to-end metric of ``BENCHMARK.json``, each side's median and
quartiles, the ratio of the medians, the number of pairs the change won and
a verdict, the first of these that holds:

- ``gain``: at least 10 pairs ran, the change won at least 9 in 10 of them,
  ties counting for neither side, and its median is better than the parent's by more than the
  parent's interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's ``bound``, a fraction of the parent's median;
- ``unresolved``: either side's interquartile range exceeds ``bound`` of
  that side's median, so a difference within the bound cannot be told from
  noise, and not every change run is better than every parent run;
- ``within bound``: any other case.

The file is rewritten after every pair, so an interrupted run keeps the
pairs it finished.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", required=True, help="BENCH_<pr>.json to create or extend")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error(f"--pairs must be at least 1, got {args.pairs}")
    return args


def tree_files(checkout, top):
    """{path relative to ``top``: bytes} for every file under it outside __pycache__."""
    root = os.path.join(checkout, top)
    files = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


def first_perfbench_difference(parent, change):
    """The first file, in sorted order, whose bytes differ or that only one checkout has."""
    a, b = tree_files(parent, "perfbench"), tree_files(change, "perfbench")
    return next((name for name in sorted(a.keys() | b.keys()) if a.get(name) != b.get(name)),
                None)


def source_hash(checkout):
    """SHA-256 over the sorted relative paths and bytes of the files of ``src/``."""
    digest = hashlib.sha256()
    for name, data in sorted(tree_files(checkout, "src").items()):
        digest.update(f"{name}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def checkout_kind(checkout):
    """A "git work tree" if ``checkout`` holds a ``.git`` file or directory, else a "plain copy"."""
    return "git work tree" if os.path.exists(os.path.join(checkout, ".git")) else "plain copy"


def run_once(checkout, workload, seconds):
    """One perfbench run in ``checkout``: (provenance dict, result object)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {checkout} (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-2000:]}")
    provenance = next((json.loads(line[len("provenance "):]) for line in lines
                       if line.startswith("provenance ")), {})
    return provenance, json.loads(lines[-1])


def spread(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, end_to_end):
    """Per-metric medians, quartiles and pair wins over the recorded runs."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
    complete = [p for p in pairs.values() if len(p) == 2]
    summary = {
        "pairs": len(complete),
        "failed": {side: f"{sum(p[side]['failed'] for p in complete)}/"
                         f"{sum(p[side]['attempted'] for p in complete)}"
                   for side in ("parent", "change")},
        "correct": {side: all(p[side]["correct"] for p in complete)
                    for side in ("parent", "change")},
        "metrics": {},
    }
    if not complete:
        return summary
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        side_values = {side: [p[side]["metrics"][name]["value"] for p in complete]
                       for side in ("parent", "change")}
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for p in complete
                   if sign * (p["change"]["metrics"][name]["value"]
                              - p["parent"]["metrics"][name]["value"]) > 0)
        parent, change = spread(side_values["parent"]), spread(side_values["change"])
        gap = sign * (change["median"] - parent["median"])  # > 0: the change is better
        iqr, bound = parent["q3"] - parent["q1"], metric["bound"]
        noisy = any(s["q3"] - s["q1"] > bound * s["median"] for s in (parent, change))
        if len(complete) >= 10 and 10 * wins >= 9 * len(complete) and gap > iqr:
            verdict = "gain"
        elif gap < -bound * parent["median"]:
            verdict = "worse"
        elif noisy and (min(sign * v for v in side_values["change"])
                        <= max(sign * v for v in side_values["parent"])):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        summary["metrics"][name] = {
            "unit": metric["unit"],
            "better": better,
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_over_parent": change["median"] / parent["median"],
            "change_better_pairs": wins,
            "verdict": verdict,
        }
    return summary


def main(argv=None):
    args = parse_args(argv)
    differs = first_perfbench_difference(args.parent, args.change)
    if differs is not None:
        print(f"error: perfbench/{differs} differs between {args.parent} and {args.change}",
              file=sys.stderr)
        return 1
    checkouts = {"parent": args.parent, "change": args.change}
    kinds = {side: checkout_kind(path) for side, path in checkouts.items()}
    if kinds["parent"] != kinds["change"]:
        print(f"error: the parent is a {kinds['parent']} and the change a {kinds['change']}; "
              "make both checkouts the same way", file=sys.stderr)
        return 1
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    end_to_end, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    bench = {"workloads": {}}
    if os.path.exists(args.out):
        with open(args.out) as f:
            bench = json.load(f)
    sources = {side: source_hash(path) for side, path in checkouts.items()}
    if sources["parent"] == sources["change"]:
        print(f"warning: the parent and the change hold the same src/ (sha256 "
              f"{sources['parent'][:12]}); the pairs measure one program twice", file=sys.stderr)
    entry = {"seconds": seconds, "checkout_kinds": kinds, "sources": sources, "runs": []}
    bench["workloads"][args.workload] = entry
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            provenance, result = run_once(checkouts[side], args.workload, seconds)
            entry["seed"] = provenance.get("seed")
            entry.setdefault("commits", {})[side] = provenance.get("commit")
            entry["host"] = {k: provenance.get(k) for k in ("python", "numpy", "blas", "nproc",
                                                            "thread_env")}
            entry["runs"].append({"pair": pair, "side": side, "first": side == order[0],
                                  "result": result})
            metric = result["metrics"]
            print(f"pair {pair} {side:6s} " + " ".join(
                f"{m['name']}={metric[m['name']]['value']:.4g}" for m in end_to_end), flush=True)
        entry["summary"] = summarize(entry["runs"], end_to_end)
        with open(args.out, "w") as f:
            json.dump(bench, f, indent=1, sort_keys=True)
            f.write("\n")
    for name, m in entry["summary"]["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, "
              f"{m['parent']['q3']:.4g}], change {m['change']['median']:.4g} "
              f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}], ratio "
              f"{m['change_over_parent']:.3f}, change better in {m['change_better_pairs']}/"
              f"{entry['summary']['pairs']} pairs: {m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
