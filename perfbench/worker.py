"""One fresh process that runs one workload; started by ``run.py``.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only

``--setup-only`` imports ``diagsemi.cli``, builds every target's
catalog generating set, prints ``ready`` and exits: ``run.py`` times it
from process start as the set-up a CLI user pays on every call.

Otherwise the worker sets up the same way and then repeats passes over
the workload's targets while another pass still fits in ``--seconds``
(at least one pass; with ``--trace 1`` an untraced and a traced pass
alternate, at least one of each).
Every target is timed from its ``cli.main(argv)`` call to its verified
output.  The last line of stdout is a JSON report for ``run.py``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def host_record():
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy
    from diagsemi import kernels
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "numba_imports": kernels.numba is not None}


def set_up(workload, seed, out):
    from diagsemi import catalog, cli
    from diagsemi.formulas import family_order
    targets = workloads.targets(workload, seed, out, family_order)
    for target in targets:
        for family, n in target.families:
            catalog.standard_generators(family, n)
    return cli, targets


def run_target(cli, target, out, digests, tracer=None):
    """Run one target and verify it; returns (seconds, failure or None)."""
    for name in target.files:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out / name)
    buf = io.StringIO()
    failure = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            if tracer is None:
                code = cli.main(target.argv)
            else:
                code = tracer.run(target.label, cli.main, target.argv)
        except Exception as exc:  # a target that raises is one failed operation
            failure = f"raised {exc!r}"
    failure = failure or verify(target, code, buf.getvalue(), out, digests)
    return time.perf_counter() - t0, failure


def verify(target, code, text, out, digests):
    if code != 0:
        return f"exit status {code}"
    if "MISMATCH" in text:
        return "printed MISMATCH"
    lines = text.splitlines()
    for want in target.expect:
        if not any(re.fullmatch(want, line) for line in lines):
            return f"no output line matches {want!r}"
    for name in target.files:
        try:
            data = (out / name).read_bytes()
        except FileNotFoundError:
            return f"output {name} not written"
        if hashlib.sha256(data).hexdigest() != digests.get(name):
            return f"output {name} differs from its recorded sha256"
    return None


def run_pass(report, kind, cli, targets, out, digests, tracer=None):
    """One pass over the targets; its time goes to ``report[kind]``."""
    total = 0.0
    for target in targets:
        seconds, failure = run_target(cli, target, out, digests, tracer)
        total += seconds
        if failure:
            report["failures"].append(f"{target.label}: {failure}")
    report[kind].append(total)
    report["targets_run"] += len(targets)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out = BENCH / "out" / args.workload
    cli, targets = set_up(args.workload, args.seed, str(out))
    if args.setup_only:
        print("ready", flush=True)
        return 0

    out.mkdir(parents=True, exist_ok=True)
    digests = json.loads((BENCH / "digests.json").read_text())
    report = {"host": host_record(), "order": [t.label for t in targets],
              "untraced": [], "traced": [], "failures": [], "targets_run": 0,
              "layers": [], "nesting_problems": []}
    start = time.perf_counter()
    while True:
        run_pass(report, "untraced", cli, targets, out, digests)
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                run_pass(report, "traced", cli, targets, out, digests, tracer)
            finally:
                tracer.uninstall()
            report["layers"].append(layer_metrics(tracer))
            report["nesting_problems"] += tracer.check_nesting()
            if len(report["traced"]) == 1:
                write_spans(out / "trace_spans.json", tracer)
        # start another round only if a typical one still fits the budget
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(report["untraced"]) > args.seconds:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = (own + children) / 1024  # ru_maxrss is KiB on Linux
    print(json.dumps(report))
    return 0


def write_spans(path, tracer):
    """The spans of the first traced pass, kept in memory until now."""
    doc = {"fields": ["name", "start", "end", "parent", "run", "counters"],
           "runs": tracer.runs, "spans": tracer.spans,
           "products": {i: [tracer.mul_calls[i], tracer.mul_s[i]]
                        for i in tracer.mul_calls}}
    path.write_text(json.dumps(doc))


def layer_metrics(tracer):
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    t = tracer.totals()

    def get(span, key):
        return t.get(span, {}).get(key, 0)

    mul_calls = sum(tracer.mul_calls.values())
    raw_sets = get("census.census", "raw_sets")
    closures = get("kernels.extend_window", "closures")
    m = {
        "cli.self_s": (get("cli", "self_s"), "s"),
        "elements.mul_calls": (mul_calls, "count"),
        "elements.mul_s": (sum(tracer.mul_s.values()), "s"),
        "engine.elements": (get("engine.enumerate", "elements"), "count"),
        "engine.enumerate_mul_calls": (get("engine.enumerate", "mul_calls"), "count"),
        "engine.enumerate_s": (get("engine.enumerate", "s"), "s"),
        "engine.enumerate_self_s": (get("engine.enumerate", "self_s"), "s"),
        "engine.green_s": (get("engine.green", "s"), "s"),
        "engine.eggbox_calls": (get("engine.eggbox", "calls"), "count"),
        "engine.eggbox_s": (get("engine.eggbox", "s"), "s"),
        "engine.table_s": (get("engine.table", "s"), "s"),
        "engine.table_bytes": (get("engine.table", "bytes"), "bytes"),
        # self time: the eggboxes that to_json rebuilds count in eggbox_s
        "engine.write_s": (get("engine.write", "self_s"), "s"),
        "engine.write_bytes": (get("engine.write", "bytes"), "bytes"),
        "census.symmetry_group_s": (get("census.symmetry_group", "s"), "s"),
        "census.group_order": (get("census.symmetry_group", "group_order"), "count"),
        "census.search_s": (get("census.search", "s"), "s"),
        "census.search_self_s": (get("census.search", "self_s"), "s"),
        "census.raw_sets": (raw_sets, "count"),
        "census.classes": (get("census.census", "classes"), "count"),
        "census.census_self_s": (get("census.census", "self_s"), "s"),
        "census.pool_records_unobserved": (
            get("census.census", "classes") - get("kernels.count_dclasses", "calls"),
            "count"),
        "census.write_s": (get("census.write", "s"), "s"),
        "census.write_bytes": (get("census.write", "bytes"), "bytes"),
        "kernels.extend_window_calls": (get("kernels.extend_window", "calls"), "count"),
        "kernels.extend_window_s": (get("kernels.extend_window", "s"), "s"),
        "kernels.closures": (closures, "count"),
        # raw sets found per closure computed; 0 when no closure ran
        "kernels.closure_yield": (raw_sets / closures if closures else 0.0, "ratio"),
        "kernels.min_image_calls": (get("kernels.min_image", "calls"), "count"),
        "kernels.min_image_s": (get("kernels.min_image", "s"), "s"),
        "kernels.count_dclasses_calls": (get("kernels.count_dclasses", "calls"), "count"),
        "kernels.count_dclasses_s": (get("kernels.count_dclasses", "s"), "s"),
        "kernels.count_idempotents_calls": (
            get("kernels.count_idempotents", "calls"), "count"),
        "kernels.count_idempotents_s": (get("kernels.count_idempotents", "s"), "s"),
    }
    return {name: (float(v), unit) for name, (v, unit) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
