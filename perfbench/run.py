"""diagsemi benchmark: wall time of the CLI to a verified answer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/diagsemi`` must exist; the
benchmark never falls back to an installed copy).  Workloads and the
reason for each are in ``perfbench/workloads.py``.

``--trace 0`` prints the end-to-end metrics:

* ``wall_s`` -- median time of one pass over the workload's targets in
  a warm worker process, each target timed from ``cli.main(argv)`` to
  its verified output;
* ``setup_s`` -- median, over several fresh interpreters, of the time
  from process start to ``diagsemi.cli`` imported and every target's
  generating set built (what a CLI user pays on every call);
* ``peak_rss_mb`` -- peak resident memory of the worker, which runs only
  this workload, plus that of the largest forked child (the
  ``--jobs 2`` statistics pool), in MiB.

``--trace 1`` runs untraced and traced passes alternately in one worker
and prints the per-layer metrics of ``perfbench/tracer.py``: medians over
the traced passes, plus the tracing overhead.  The spans of the first
traced pass are written to ``perfbench/out/<workload>/trace_spans.json``.

A target fails when it exits nonzero, prints MISMATCH, prints a count
other than the expected one, or writes a file whose sha256 differs from
``perfbench/digests.json``.  ``ops_failed_frac`` is failed / attempted
targets.  The last stdout line is the JSON result; a run record with the
host, seed, target order and every pass time is written to
``perfbench/out/<workload>/run_seed<N>_trace<T>.json``.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_PROBES = 3  # before the worker, and as many again after it
DEADLINE_S = 170  # the whole run must end well inside 180 s


def start(argv):
    # own session, so a timeout can stop the worker's forked pool too
    return subprocess.Popen([sys.executable, str(WORKER), *argv], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def stop(proc):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def setup_seconds(workload, deadline):
    """Seconds from the start of a fresh interpreter to 'ready'."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = start(["--workload", workload, "--setup-only"])
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        samples.append(elapsed)
    return samples


def measure(args, deadline):
    proc = start(["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)])
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "diagsemi" / "cli.py").is_file():
        print(f"error: no diagsemi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        # probes on both sides of the worker sample two stretches of host load
        setup_samples = [] if args.trace else setup_seconds(args.workload, deadline)
        report = measure(args, deadline)
        if not args.trace:
            setup_samples += setup_seconds(args.workload, deadline)
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = report["targets_run"]
    failed = len(report["failures"])
    wall = statistics.median(report["untraced"])
    print("host " + json.dumps(report["host"]))
    print(f"workload {args.workload}  seed {args.seed}  order: "
          + "; ".join(report["order"]))
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(f"wall_s       {wall:.4f} s  median of {len(report['untraced'])} passes "
          f"(min {min(report['untraced']):.4f}, max {max(report['untraced']):.4f})")
    if args.trace:
        traced = statistics.median(report["traced"])
        metrics = {name: metric(statistics.median(p[name][0] for p in report["layers"]),
                                unit)
                   for name, (_, unit) in report["layers"][0].items()}
        metrics.update({
            "bench.untraced_wall_s": metric(wall, "s"),
            "bench.traced_wall_s": metric(traced, "s"),
            "bench.trace_overhead_s": metric(traced - wall, "s"),
            "bench.trace_overhead_frac": metric((traced - wall) / wall, "ratio"),
            "bench.untraced_passes": metric(len(report["untraced"]), "count"),
            "bench.traced_passes": metric(len(report["traced"]), "count"),
        })
        for problem in report["nesting_problems"]:
            print(f"TRACE {problem}")
        print(f"traced pass  {traced:.4f} s  median of {len(report['traced'])}; "
              f"overhead {traced - wall:+.4f} s")
        print("limit: kernel calls inside forked --jobs workers are not observed; "
              f"{metrics['census.pool_records_unobserved']['value']:.0f} records' "
              "statistics ran there")
    else:
        setup = statistics.median(setup_samples)
        metrics = {"wall_s": metric(wall, "s"),
                   "setup_s": metric(setup, "s"),
                   "peak_rss_mb": metric(report["peak_rss_mb"], "MiB")}
        print(f"setup_s      {setup:.4f} s  median of {len(setup_samples)} fresh "
              "interpreters")
        print(f"peak_rss_mb  {report['peak_rss_mb']:.1f} MiB")
    print(f"ops_failed_frac {failed / attempted:.4f} ratio  ({failed} of {attempted} "
          "targets failed)")

    record = dict(report, workload=args.workload, seed=args.seed, setup=setup_samples,
                  seconds=args.seconds, trace=args.trace, metrics=metrics)
    out = BENCH / "out" / args.workload
    (out / f"run_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0 and not report.get("nesting_problems"),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
