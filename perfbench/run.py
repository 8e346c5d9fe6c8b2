"""Verdict benchmark for zwcalc.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in this process, single-threaded: BLAS and OpenMP
threads and the hash seed are pinned, re-executing the interpreter if
they were not.  The workload's verdicts (see ``workloads.py``) run in
whole passes until ``--seconds`` have elapsed, each timed on its own and
checked against its known answer.  Every time is the CPU time of the
process doing the work, rescaled to a reference host speed by a
calibration kernel that runs between the verdicts (see ``clock.py``); a
verdict's time is the median of its repetitions.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
``setup_s`` (median of several fresh processes, from start until the
inputs are ready), ``verdicts_per_s`` (verdicts in a pass over the sum of
their times), the median and 90th percentile of the verdict times
``verdict_ms_p50`` and ``verdict_ms_p90``, and ``peak_rss_mb``.  With ``--trace 1`` the same
untraced passes run, then one traced pass, and the last line holds the
per-layer metrics of ``tracing.LAYER_METRICS``; the spans are written to
``.perfbench/trace-<workload>.npz``.  The line before the last holds a
report: sample counts, the error rate, every wrong verdict, the input
digest and the versions measured.

``attempted`` counts verdicts run and ``failed`` those that were wrong
or raised.  ``correct`` is false when a verdict other than the known
defects listed in ``expected.json`` was wrong.  ``--workload all`` runs
each workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import clock
import tracing
import workloads

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_PROBES = 11
SETUP_KERNELS = 3  # kernel runs before and after each set-up probe
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_ms_p50": "ms",
    "verdict_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_environment():
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])


class Tally:
    """Verdict outcomes: attempts, wrong answers, exceptions."""

    def __init__(self):
        self.attempted = 0
        self.wrong: Counter = Counter()
        self.errors: dict[str, str] = {}

    def judge(self, label: str, fn) -> None:
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception:  # a crash is a wrong verdict; keep going
            ok = False
            self.errors.setdefault(label, traceback.format_exc())
        if not ok:
            self.wrong[label] += 1

    @property
    def failed(self) -> int:
        return sum(self.wrong.values())

    def unexpected(self) -> list[str]:
        known = {k["label"] for k in workloads.EXPECTED["known_wrong"]}
        return sorted(set(self.wrong) - known)


def timed_passes(verdicts, seconds: float, tally: Tally):
    """Whole passes until ``seconds`` elapse; per-verdict times in seconds,
    wall-clock and CPU time rescaled to reference speed."""
    cal = clock.Calibration()
    starts = [[] for _ in verdicts]
    times = [[] for _ in verdicts]
    cpu = [[] for _ in verdicts]
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for i, v in enumerate(verdicts):
            cal.maybe_sample()
            t0, c0 = perf_counter(), process_time()
            tally.judge(v.label, v.check)
            cpu[i].append(process_time() - c0)
            times[i].append(perf_counter() - t0)
            starts[i].append(t0)
        passes += 1
    elapsed = perf_counter() - start
    cal.sample()
    scaled = [[t * cal.factor(t0) for t0, t in zip(ss, ts)]
              for ss, ts in zip(starts, cpu)]
    return times, scaled, passes, elapsed


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes: wall-clock, and the probe's CPU
    time rescaled by the calibration kernel run just before and just
    after it."""
    probe = Path(__file__).with_name("setup_probe.py")
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        kernels = [clock.time_kernel() for _ in range(SETUP_KERNELS)]
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(probe), name, str(seed)],
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        ready, cpu = map(float, proc.stdout.split()[-2:])
        raw.append(ready - t0)
        kernels += [clock.time_kernel() for _ in range(SETUP_KERNELS)]
        scaled.append(cpu * clock.REFERENCE_S / statistics.median(kernels))
    return raw, scaled


def info() -> dict:
    import numpy

    src = workloads.SRC / "zwcalc"
    return {
        "src_zwcalc_lines": sum(len(p.read_text().splitlines())
                                for p in sorted(src.glob("*.py"))),
        "git_commit": git_commit(workloads.ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def git_commit(root: Path) -> str:
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
    return "unknown"


def end_to_end(scaled, setups) -> dict:
    """Each verdict's time is the median of its rescaled repetitions."""
    per = [statistics.median(ts) for ts in scaled]
    per_ms = [t * 1e3 for t in per]
    values = {
        "setup_s": statistics.median(setups),
        "verdicts_per_s": len(per) / sum(per),
        "verdict_ms_p50": statistics.median(per_ms),
        "verdict_ms_p90": statistics.quantiles(per_ms, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_pass(workload, tracer, tally: Tally):
    """One pass under the tracer; per-verdict times measured outside it,
    wall-clock and CPU time rescaled to reference speed."""
    cal = clock.Calibration()
    starts, times, cpu = [], [], []
    tracer.install()
    try:
        for i, v in enumerate(workload.verdicts):
            cal.maybe_sample()
            t0, c0 = perf_counter(), process_time()
            tally.judge(v.label, lambda: tracer.run_verdict(i, v.check))
            cpu.append(process_time() - c0)
            times.append(perf_counter() - t0)
            starts.append(t0)
    finally:
        tracer.uninstall()
    cal.sample()
    return times, [t * cal.factor(t0) for t0, t in zip(starts, cpu)]


def self_sum_ratio(tracer, measured) -> float:
    """Check that each verdict's span self times add up to its root span,
    and return their total over the verdict times measured outside."""
    sums = tracer.verdict_self_sums()
    for vid, (self_total, root) in sums.items():
        if abs(self_total - root) > 1e-6 * root + 1e-9:
            raise RuntimeError(f"verdict {vid}: self times {self_total} != span {root}")
    return sum(s for s, _ in sums.values()) / sum(measured)


def run_one(args) -> int:
    try:
        workloads.load_zwcalc()
    except workloads.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer() if args.trace else None
    missing = tracer.install() if tracer else []
    try:
        workload = workloads.build(args.workload, args.seed)
    finally:
        if tracer:
            tracer.uninstall()
    tally = Tally()
    setups, setups_scaled = (([], []) if tracer
                             else setup_seconds(args.workload, args.seed))
    times, scaled, passes, elapsed = timed_passes(workload.verdicts, args.seconds, tally)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": passes, "verdicts_per_pass": len(workload.verdicts),
        "samples": len(times), "timed_s": elapsed,
        "wall_verdicts_per_s": sum(map(len, times)) / elapsed,
        "setup_probes_s": setups, "input_digest": workload.digest,
        "wall_verdict_ms_p50": statistics.median(
            statistics.median(ts) * 1e3 for ts in times),
        **info(),
    }
    if tracer:
        traced_wall, traced = traced_pass(workload, tracer, tally)
        untraced = [statistics.median(ts) for ts in scaled]
        overhead = sum(traced) / sum(untraced)
        metrics = tracing.layer_metrics(tracer, overhead,
                                        self_sum_ratio(tracer, traced_wall))
        out_dir = workloads.ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.save(out_dir / f"trace-{args.workload}.npz")
        report.update(spans=len(tracer.name), missing_layers=missing,
                      untraced_verdicts_per_s=len(untraced) / sum(untraced),
                      traced_verdicts_per_s=len(traced) / sum(traced))
    else:
        metrics = end_to_end(scaled, setups_scaled)
    unexpected = tally.unexpected()
    report.update(verdict_error_rate=tally.failed / tally.attempted,
                  wrong_verdicts=dict(tally.wrong), unexpected_wrong=unexpected)
    for label, tb in tally.errors.items():
        print(f"perfbench: {label} raised\n{tb}", file=sys.stderr)
    for label in unexpected:
        print(f"perfbench: WRONG {label}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not unexpected, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own; one table."""
    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"verdict_error_rate={report['verdict_error_rate']:.4g} "
              f"samples={report['samples']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<38} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
