"""Alternating A/B runs of the unchanged benchmark of two revisions, written to BENCH_<tag>.json.

Each side is unpacked with ``git archive REV`` (or, for ``WORKTREE``, copied
from the working tree's tracked and untracked, not ignored files) into a
scratch directory, which the run removes again; the repository itself is only
read.  The sides' own ``benchmarks/run.py`` then run in pairs, one after the
other, base first in even pairs and change first in odd ones, so that a drift
of the machine's speed falls on both sides alike.  A run that is not
``correct`` or has ``failed`` > 0 stops the tool before any record is written.

The record holds both revisions, each side's environment (the ``env`` of its
``info`` line: cpu, nproc, python, numpy, the sources' digest), every metric's
median and quartiles per side, the pairs the change won per metric and every
run's result line.  ``--baseline`` runs the base side alone.

    python3 tools/ab.py --base HEAD --change WORKTREE --workload current-quadrature \\
        --seed 7 --pairs 10 --seconds 5 --tag current-quadrature-ab
    python3 tools/ab.py --base HEAD --baseline --workload flatness-sweep --seed 7 --pairs 5 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def unpack(rev: str, into: Path) -> str:
    """The tree of rev (or of the working tree) under into; returns the commit it names, or WORKTREE."""
    into.mkdir()
    if rev == WORKTREE:
        for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").decode().split("\0"):
            if name and (ROOT / name).is_file():
                (into / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, into / name)
        return WORKTREE
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    subprocess.run(["tar", "-x", "-C", str(into)], input=git("archive", "--format=tar", commit), check=True)
    return commit


def bench(tree: Path, args) -> tuple[dict, dict]:
    """(info, result) of one untraced run of the tree's own benchmarks/run.py."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"error: {tree.name}: run.py exited {done.returncode}: {done.stderr.strip()[-500:]}")
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] > 0:
        raise SystemExit(f"error: {tree.name}: refusing a run that is not correct or has failures: {lines[-1]}")
    return info, result


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="a git revision")
    parser.add_argument("--change", default=WORKTREE, help=f"a git revision or {WORKTREE} (the default)")
    parser.add_argument("--baseline", action="store_true", help="run the base side alone")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs, or runs of the base with --baseline")
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--tag", help="the record is BENCH_<tag>.json at the repository root")
    parser.add_argument("--scratch", help="where the trees are unpacked (default: a new temporary directory)")
    args = parser.parse_args(argv)
    tag = args.tag or (f"baseline-{args.workload}" if args.baseline else f"{args.workload}-ab")
    better = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = ("base",) if args.baseline else ("base", "change")

    scratch = Path(tempfile.mkdtemp(prefix="ab-", dir=args.scratch))
    try:
        trees = {side: scratch / side for side in sides}
        revs = {side: getattr(args, side) for side in sides}
        commits = {side: unpack(revs[side], trees[side]) for side in sides}
        runs, envs = [], {}
        for pair in range(args.pairs):
            for side in sides if pair % 2 == 0 else sides[::-1]:
                info, result = bench(trees[side], args)
                env = {k: v for k, v in info["env"].items() if k != "git_commit"}
                if envs.setdefault(side, env) != env:
                    raise SystemExit(f"error: the {side} side's environment changed between runs: {env}")
                runs.append({"pair": pair, "side": side, "result": result})
                print(f"pair {pair} {side}: " + ", ".join(
                    f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()), file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    value = {(r["pair"], r["side"], name): m["value"] for r in runs for name, m in r["result"]["metrics"].items()}
    metrics = {}
    for name in better:
        per = {side: [value[p, side, name] for p in range(args.pairs)] for side in sides}
        metrics[name] = {"better": better[name], **{side: quartiles(per[side]) for side in sides}}
        if not args.baseline:
            sign = 1.0 if better[name] == "higher" else -1.0
            metrics[name]["change_over_base"] = metrics[name]["change"]["median"] / metrics[name]["base"]["median"] - 1.0
            metrics[name]["pairs_won"] = sum(sign * (c - b) > 0.0 for b, c in zip(per["base"], per["change"]))
    argv = list(argv if argv is not None else sys.argv[1:])
    if args.scratch is not None:  # where the trees went changes no result
        at = next(k for k, arg in enumerate(argv) if arg.partition("=")[0] == "--scratch")
        del argv[at: at + 1 + (argv[at] == "--scratch")]  # --scratch PATH or --scratch=PATH
    record = {
        "tag": tag,
        "argv": ["tools/ab.py", *argv],
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        **{side: {"rev": revs[side], "commit": commits[side], "env": envs[side]} for side in sides},
        "metrics": metrics,
        "runs": runs,
    }
    out = ROOT / f"BENCH_{tag}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
