"""recipfm benchmark: verdict throughput, latency, set-up time and memory.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; recipfm is imported from its ``src``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the sample counts.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # load comes from one process and one thread

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402

OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("flatness-sweep", "current-quadrature", "catalog-cli")

SETUP_PROBES = 7  # fresh interpreters timed for setup_s; the median is reported
WARMUP_S = 1.0
SPAN_BUDGET = 1_000_000  # spans kept by a traced run (24 bytes each)
PROBE_TIMEOUT_S = 60


@dataclass
class Loop:
    latencies: list[float] = field(default_factory=list)  # reference seconds
    raw_latencies: list[float] = field(default_factory=list)  # wall seconds
    failures: list[str] = field(default_factory=list)
    round_s: list[float] = field(default_factory=list)  # reference seconds inside verdicts
    wall_s: float = 0.0


def run_rounds(workload, first, checker, *, seconds=None, rounds=None, tracer=None) -> Loop:
    """Whole rounds until ``seconds`` of wall time have passed or ``rounds`` are done.

    Every round is the same mix of verdicts, so the metrics do not depend on
    where the time runs out.  The calibration kernel runs at least every
    CALIBRATE_EVERY_S and at each round's end; each verdict's latency is
    scaled by the kernel speed averaged over the kernel runs around it.  A
    traced loop also stops before a round that would take it past
    SPAN_BUDGET spans, judged by the round before.
    """
    loop = Loop()
    clock = time.perf_counter
    pending: list[float] = []
    speed = calibrate.kernel_seconds()
    last_kernel = clock()

    def settle() -> None:
        nonlocal speed, last_kernel
        now = calibrate.kernel_seconds()
        scale = calibrate.REFERENCE_S / ((speed + now) / 2.0)
        loop.latencies.extend(t * scale for t in pending)
        loop.raw_latencies.extend(pending)
        pending.clear()
        speed, last_kernel = now, clock()

    start = clock()
    r = done = spans_per_round = 0
    while True:
        r += 1
        if tracer is not None and r > 1 and len(tracer) + spans_per_round > SPAN_BUDGET:
            break
        spans_before = len(tracer) if tracer is not None else 0
        if tracer is not None:
            tracer.mark(tracer.PREP)
        verdicts = first if r == 1 else workload.round(r)
        in_round = len(loop.latencies)
        for v in verdicts:
            if tracer is not None:
                tracer.mark(done)
            done += 1
            nonfinite = checker.nonfinite
            t0 = clock()
            try:
                out = v.run()
            except Exception as exc:  # a verdict that raises is a failed verdict
                pending.append(clock() - t0)
                loop.failures.append(f"{v.label}: raised {exc!r}")
                continue
            pending.append(clock() - t0)
            try:
                why = v.judge(out)
            except Exception as exc:
                why = f"unreadable output: {exc!r}"
            if why is None and checker.nonfinite != nonfinite:
                why = f"{checker.nonfinite - nonfinite} non-finite residual entries"
            if why is not None:
                loop.failures.append(f"{v.label}: {why}")
            if clock() - last_kernel >= calibrate.CALIBRATE_EVERY_S:
                settle()
        settle()
        loop.round_s.append(sum(loop.latencies[in_round:]))
        if tracer is not None:
            spans_per_round = len(tracer) - spans_before
        if rounds is not None and r >= rounds:
            break
        if seconds is not None and clock() - start >= seconds:
            break
    loop.wall_s = clock() - start
    return loop


def warm_up(workload) -> list[str]:
    """Fill recipfm's lazy tables before timing; round 0 is never timed.
    Returns the failures among the warm-up verdicts."""
    failures = []
    deadline = time.perf_counter() + WARMUP_S
    for v in workload.round(0):
        try:
            why = v.judge(v.run())
        except Exception as exc:
            why = f"raised {exc!r}"
        if why is not None:
            failures.append(f"warm-up {v.label}: {why}")
        if time.perf_counter() >= deadline:
            break
    return failures


def setup_probes(name: str, seed: int) -> list[tuple[float, float]]:
    """(reference seconds, wall seconds) of SETUP_PROBES fresh set-ups."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        ref_s, wall_s = done.stdout.split()
        times.append((float(ref_s), float(wall_s)))
    return times


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
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
    return None


def environment(seed: int, trace: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recipfm").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "traced": bool(trace),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "recipfm" / "__init__.py").is_file():
        print(f"error: no recipfm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import recipfm
    import workloads

    if Path(recipfm.__file__).resolve().parent != ROOT / "src" / "recipfm":
        print(f"error: imported recipfm from {recipfm.__file__}, not from this checkout", file=sys.stderr)
        return 2

    probes = setup_probes(args.workload, args.seed) if args.trace == 0 else []
    checker = workloads.ResidualChecker()
    t0 = time.perf_counter()
    workload, first = workloads.setup(args.workload, args.seed)
    setup_in_process = time.perf_counter() - t0
    warm_failures = warm_up(workload)
    gc.freeze()  # set-up objects leave the collector's generations, so collections stay small

    seconds = args.seconds if args.trace == 0 else args.seconds / 2.0
    loop = run_rounds(workload, first, checker, seconds=seconds)
    controls = workloads.negative_controls(checker, args.seed)
    problems = [f"negative control not caught: {k}" for k, why in controls.items() if why is None]
    problems += warm_failures
    attempted, failures = len(loop.latencies), list(loop.failures)
    info = {
        "workload": args.workload,
        "env": environment(args.seed, args.trace),
        "verdicts": len(loop.latencies),
        "rounds": len(loop.round_s),
        "loop_wall_s": loop.wall_s,
        "redrawn_calls": workload.redrawn,
        "setup_in_process_s": setup_in_process,
        "negative_controls": controls,
    }

    if args.trace == 0:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "verdicts_per_s": (attempted / sum(loop.latencies), "1/s"),
            "verdict_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
            "verdict_p90_ms": (1e3 * percentile(loop.latencies, 90), "ms"),
            "setup_s": (statistics.median(ref for ref, _ in probes), "s"),
            "peak_rss_mb": (rss_mb, "MiB"),
        }
        raw = loop.raw_latencies
        info["wall_clock"] = {
            "verdicts_per_s": attempted / sum(raw),
            "verdict_p50_ms": 1e3 * statistics.median(raw),
            "verdict_p90_ms": 1e3 * percentile(raw, 90),
            "setup_s": statistics.median(wall for _, wall in probes),
        }
    else:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        stale = tracer.stale_references()
        fake = types.ModuleType("stale_control")
        fake.held = next(iter(tracer.wrappers))
        if "stale_control.held" not in tracer.stale_references(extra=[fake]):
            problems.append("negative control not caught: an unwrapped reference in a namespace")
        problems += [f"unwrapped reference after install: {name}" for name in stale]

        t0 = time.perf_counter()
        traced_workload, traced_first = workloads.setup(args.workload, args.seed)
        traced_setup_s = time.perf_counter() - t0
        entries0 = checker.entries
        traced = run_rounds(traced_workload, traced_first, checker, rounds=len(loop.round_s), tracer=tracer)
        replayed = len(traced.round_s)
        overhead = sum(traced.round_s) / sum(loop.round_s[:replayed])
        metrics, self_total = spans.layer_metrics(
            tracer, len(traced.latencies), checker.entries - entries0, overhead)
        wall = traced_setup_s + traced.wall_s
        if self_total > wall:
            problems.append(f"span self times add up to {self_total:.3f} s, more than the traced wall {wall:.3f} s")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        attempted += len(traced.latencies)
        failures += traced.failures
        info.update(traced_verdicts=len(traced.latencies), traced_rounds=replayed, spans=len(tracer),
                    traced_s=wall, span_self_s=self_total)

    info["latency_samples"] = attempted
    info["failures"] = failures[:20]
    info["problems"] = problems
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=2) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
