"""The spans that the benchmark's tracer reads, on real runs."""

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


def test_traced_selftest_pass_records_its_engine_and_census_spans(tmp_path, capsys):
    """A traced pass of the benchmark self-test's three targets, ``fern 6
    1``, ``green T 3 --json`` and ``census T 2 --stats``, nests cleanly and
    reads what the tracer's layer metrics report: so a move or rename of
    a function the tracer patches fails here, not only in the self-test."""
    pgm, doc, stats = tmp_path / "fern.pgm", tmp_path / "green.json", tmp_path / "stats"
    targets = [["fern", "6", "1", "--out", str(pgm)],
               ["green", "T", "3", "--json", str(doc)],
               ["census", "T", "2", "--stats", "--out", str(stats)]]
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        codes = [tracer.run(" ".join(argv[:3]), cli.main, argv) for argv in targets]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    out = capsys.readouterr().out
    assert "5x5 bitmap, 13 idempotent cells (brute-force 13, MATCH)" in out
    assert not tracer.check_nesting()
    totals = tracer.totals()
    assert totals["engine.write"]["calls"] == 2
    assert totals["engine.write"]["bytes"] == pgm.stat().st_size + doc.stat().st_size
    assert totals["engine.enumerate"]["elements"] == 27 + 4
    assert "engine.eggbox" not in totals
    assert totals["census.census"]["classes"] == 8
    assert totals["census.census"]["raw_sets"] == 10
