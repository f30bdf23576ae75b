"""Quick self-test of the benchmark itself (about 15 s).

    python3 perfbench/selftest.py

Runs ``run.py`` on the small ``selftest`` workload (``fern 6 1``,
``green T 3``, ``census T 2``) untraced and traced, and checks that:

* the result line has exactly the keys the benchmark promises, is
  correct, and carries every metric ``BENCHMARK.json`` names, with its
  unit (``end_to_end`` untraced, ``per_layer`` traced);
* the spans of the traced pass nest -- each inside its parent, with its
  parent's run id -- and every self time is >= 0;
* ``kernels.min_image_calls`` equals ``census.raw_sets`` (the fold maps
  every raw set once), and the exact counts of the small targets hold;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, ``run.py`` exits nonzero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# exact per-layer counts of one traced pass of the selftest workload
COUNTS = {"census.raw_sets": 10, "census.classes": 8, "engine.elements": 132 + 27 + 4,
          "engine.eggbox_calls": 1 + 2 * 3}


def run(cwd, trace):
    argv = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload",
            "selftest", "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_result(proc, wanted):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in wanted:
        assert spec["name"] in metrics, f"{spec['name']} not printed"
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec
    extra = set(metrics) - {spec["name"] for spec in wanted}
    assert not extra, f"metrics not in BENCHMARK.json: {sorted(extra)}"
    return {name: m["value"] for name, m in metrics.items()}


def check_spans():
    doc = json.loads((BENCH / "out" / "selftest" / "trace_spans.json").read_text())
    tracer = Tracer()
    tracer.spans = doc["spans"]
    for i, (calls, secs) in doc["products"].items():
        tracer.mul_calls[int(i)], tracer.mul_s[int(i)] = calls, secs
    problems = tracer.check_nesting()
    assert not problems, problems[:5]
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli"] * 3, roots
    assert len(tracer.spans) > len(roots), "no layer spans under the CLI calls"
    return len(tracer.spans)


def check_refuses_without_sources():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without sources"
    assert '"correct"' not in proc.stdout, "run.py printed a result without sources"


def main():
    check_result(run(ROOT, 0), SPEC["end_to_end"])
    print("PASS untraced: every end_to_end metric printed with its unit")
    layers = check_result(run(ROOT, 1), SPEC["per_layer"])
    print("PASS traced: every per_layer metric printed with its unit")
    n = check_spans()
    print(f"PASS {n} spans nest, self times >= 0")
    assert layers["kernels.min_image_calls"] == layers["census.raw_sets"]
    for name, value in COUNTS.items():
        assert layers[name] == value, (name, layers[name], value)
    print("PASS exact counts")
    check_refuses_without_sources()
    print("PASS refuses to run without src/diagsemi")


if __name__ == "__main__":
    main()
