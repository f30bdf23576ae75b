"""The census spans that the benchmark's tracer reads, on a real run."""

import importlib.util
from pathlib import Path

from diagsemi import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_census_records_its_classes_raw_sets_and_writes(tmp_path, capsys):
    """A traced ``census T 2 --stats`` records one ``census.census`` span of
    8 classes and 10 raw sets and one ``census.write`` span a file, so the
    benchmark's census layer metrics cannot silently read zero."""
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        code = tracer.run("census T 2", cli.main,
                          ["census", "T", "2", "--stats", "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    assert "up to conjugacy: 8" in capsys.readouterr().out
    totals = tracer.totals()
    assert totals["census.census"]["calls"] == 1
    assert totals["census.census"]["classes"] == 8
    assert totals["census.census"]["raw_sets"] == 10
    assert totals["census.write"]["calls"] == 5
    assert totals["census.write"]["bytes"] == sum(p.stat().st_size for p in tmp_path.iterdir())
    assert not tracer.check_nesting()
