import argparse
import decimal
import hashlib
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diagsemi import catalog, census, cli, engine, halves, kernels
from diagsemi.cli import main
from diagsemi.elements import Bipartition
from diagsemi.kernels import Backend


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def _readme_cli_examples():
    """(argv, stdout lines) of each ``$ diagsemi ...`` example in the
    README's CLI section: the command's output runs to the next blank
    line or the end of its code block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples, lines = [], None
    for line in section.splitlines():
        if line.startswith("$ diagsemi "):
            lines = []
            examples.append((shlex.split(line)[2:], lines))
        elif lines is not None and line and line != "```":
            lines.append(line)
        else:
            lines = None
    return examples


def test_readme_cli_examples(tmp_path, monkeypatch, capsys):
    """Each README example prints what the README shows, line for line,
    run in an empty directory for the files it writes."""
    examples = _readme_cli_examples()
    assert examples
    monkeypatch.chdir(tmp_path)
    for argv, expected in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out.splitlines()) == (0, expected), argv


def test_order_match(capsys):
    code, out, _ = run_cli(capsys, "order", "P", "3")
    assert code == 0
    assert "203" in out and "MATCH" in out


def test_order_trivial(capsys):
    code, out, _ = run_cli(capsys, "order", "TL", "1")
    assert code == 0
    assert "closed form: 1" in out


def test_order_infeasible_prints_exact_power(capsys):
    code, out, _ = run_cli(capsys, "order", "PB", "3")
    assert code == 0
    assert "68719476736" in out
    assert "skipped" in out


def test_order_unsupported_degree_skips_enumeration(capsys):
    code, out, _ = run_cli(capsys, "order", "B", "3")
    assert code == 0
    assert "512" in out and "skipped" in out


def test_census_counts(capsys):
    code, out, _ = run_cli(capsys, "census", "TL", "3", "--up-to-conjugacy")
    assert code == 0 and "12" in out
    code, out, _ = run_cli(capsys, "census", "S", "2", "--up-to-conjugacy")
    assert code == 0 and ": 2" in out
    code, out, _ = run_cli(capsys, "census", "I", "2", "--up-to-conjugacy")
    assert code == 0 and "23" in out


def test_census_stats_files(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "census", "T", "2", "--stats", "--out", tmp_path)
    assert code == 0
    stem = tmp_path / "census_T2"
    for suffix in (".jsonl", "_sizes.csv", "_sizes_nontrivial_perm.csv",
                   "_size_vs_dclasses.csv", "_size_vs_idempotents.csv"):
        assert (tmp_path / f"census_T2{suffix}").exists()
    rows = [json.loads(line) for line in (tmp_path / "census_T2.jsonl").read_text().splitlines()]
    config = "diagsemi command=census family=T n=2 backend=python ambient=4"
    assert rows[0] == {"config": config}
    assert len(rows) - 1 == 8
    header = (tmp_path / "census_T2_sizes.csv").read_text().splitlines()[0]
    assert header == f"# {config}"


def test_census_stats_refused_for_the_s_row(tmp_path, capsys):
    code, _, err = run_cli(capsys, "census", "S", "3", "--stats", "--out", tmp_path)
    assert code == 2
    assert err.startswith("error: --stats") and "S row" in err
    assert list(tmp_path.iterdir()) == []


def test_census_raw_refuses_stats(tmp_path, capsys):
    code, out, err = run_cli(capsys, "census", "T", "2", "--raw", "--stats",
                             "--out", tmp_path)
    assert code == 2 and not out
    assert err.startswith("error:") and "--raw" in err and "--stats" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("family", ["T", "S"])
def test_census_raw_refuses_more_than_one_job(capsys, monkeypatch, family):
    """``--raw`` counts in one process, so ``--jobs`` over 1 is refused
    before any work rather than silently dropped."""
    def refuse(*args, **kwargs):
        raise AssertionError("census must refuse --raw --jobs 2 before any work")

    monkeypatch.setattr(engine, "enumerate_family", refuse)
    code, out, err = run_cli(capsys, "census", family, "2", "--raw", "--jobs", "2")
    assert code == 2 and not out
    assert err.startswith("error:") and "--raw" in err and "--jobs" in err


def test_census_out_refuses_without_stats(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("census must refuse --out before any work")

    monkeypatch.setattr(engine, "enumerate_family", refuse)
    code, out, err = run_cli(capsys, "census", "T", "2", "--out", tmp_path / "x")
    assert code == 2 and not out
    assert err.startswith("error:") and "--out" in err and "--stats" in err
    assert list(tmp_path.iterdir()) == []


def test_cli_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "diagsemi":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    assert run_cli(capsys, "order", "T", "2")[0] == 0
    assert run_cli(capsys, "order", "I", "2")[0] == 0
    assert len(built) == 1


def test_census_jobs_byte_identical(tmp_path, capsys):
    run_cli(capsys, "census", "T", "3", "--stats", "--jobs", 1, "--out", tmp_path / "a")
    run_cli(capsys, "census", "T", "3", "--stats", "--jobs", 4, "--out", tmp_path / "b")
    for name in ("census_T3.jsonl", "census_T3_sizes.csv",
                 "census_T3_size_vs_dclasses.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_census_jobs_byte_identical_across_slices(tmp_path, capsys, monkeypatch):
    """I_3 searched and folded a few sets at a time, so that every level of
    the search splits into many chunks, writes the same files with one and
    two jobs as with whole chunks."""
    def run(sub, jobs):
        code, _, _ = run_cli(capsys, "census", "I", "3", "--stats", "--jobs", jobs,
                             "--out", tmp_path / sub)
        assert code == 0
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

    whole = run("whole", 1)
    folds, levels = [], []
    min_image, spans = Backend.min_image, kernels._spans

    def recorded(weights, step):
        parts = spans(weights, step)
        if sys._getframe(1).f_code.co_name == "extend_window":  # the search's candidates
            levels.append((int(weights.sum()), len(parts), step))
        return parts

    monkeypatch.setattr(Backend, "min_image",
                        lambda self, masks: folds.append(len(masks)) or min_image(self, masks))
    monkeypatch.setattr(kernels, "_spans", recorded)
    monkeypatch.setattr(kernels, "_CHUNK_BYTES", 1 << 10)
    monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
    assert run("jobs1", 1) == whole
    # every raw set folded; every level past the first (the empty set
    # alone) in many chunks of about ``step`` candidates each
    assert sum(folds) == 16143
    assert len(levels) == 11 and all(parts > 1 for _, parts, _ in levels[1:])
    assert all(parts >= candidates // (2 * step) for candidates, parts, step in levels)
    assert run("jobs2", 2) == whole
    assert len(whole) == 5


@pytest.mark.stretch
def test_census_jobs_byte_identical_wider_than_64(tmp_path, capsys, monkeypatch):
    """Br_4 (105 elements, two 64-bit words a mask) writes the same files
    with one and two jobs."""
    monkeypatch.setattr(census, "_usable_cpus", lambda: 2)
    files = []
    for jobs in (1, 2):
        code, out, _ = run_cli(capsys, "census", "Br", 4, "--stats", "--jobs", jobs,
                               "--out", tmp_path / str(jobs))
        assert code == 0
        assert "subsemigroups of Br_4 up to conjugacy: 10411" in out
        files.append({p.name: p.read_bytes() for p in (tmp_path / str(jobs)).iterdir()})
    assert files[0] == files[1] and len(files[0]) == 5


def test_green_group(capsys):
    code, out, _ = run_cli(capsys, "green", "S", "3")
    assert code == 0
    assert "1 D-class" in out


def test_green_tl4(capsys):
    code, out, _ = run_cli(capsys, "green", "TL", "4")
    assert code == 0
    assert "3 D-classes" in out and "linearly ordered" in out


@pytest.mark.parametrize("json_out", [False, True])
def test_green_builds_no_eggbox(tmp_path, capsys, monkeypatch, json_out):
    """green and green --json read the per-class summary of Green's
    structure; neither builds an eggbox."""
    built = []

    class CountedEggbox(engine.Eggbox):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(engine, "Eggbox", CountedEggbox)
    path = tmp_path / "green.json"
    code, out, _ = run_cli(capsys, "green", "T", "3", *(["--json", path] if json_out else []))
    assert code == 0 and "3 D-classes" in out
    assert "D[1]: 18 elements, eggbox 3x3, 6 idempotent cells" in out
    if json_out:
        assert len(json.loads(path.read_text())["eggbox"]) == 3
    assert built == []


def test_fern_pgm(tmp_path, capsys):
    out_path = tmp_path / "fern.pgm"
    code, out, _ = run_cli(capsys, "fern", "8", "2", "--out", out_path)
    assert code == 0
    assert "MATCH" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1].startswith("# diagsemi")
    # rank-4 class of TL_8 has C(8,2)-C(8,1) = 20 cup diagrams
    assert lines[2] == "20 20"


def test_fern_tl12(tmp_path, capsys):
    path = tmp_path / "fern.pgm"
    code, out, _ = run_cli(capsys, "fern", 12, 5, "--out", path)
    assert code == 0
    assert ("TL_12 D[5]: 297x297 bitmap, 55319 idempotent cells "
            "(brute-force 55319, MATCH)") in out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "55495a400d932b8f02fc73c1d32f2cb7e9ee1f6c2b7cab9f3b40f54290607367")


@pytest.mark.parametrize("n,k,side,cells,digest", [
    (13, 6, 429, 184041,
     "6785f8b89283bd8008018588548c033831ebf4e0da5efc275988e9c6817609cf"),
    (14, 6, 1001, 617143,
     "57d982ebf5b43273b1937e4afd021142475ba9d087bd024cf87931c02344c8c4"),
    pytest.param(16, 7, 3432, 7154772,
                 "21468c202272f62c21f0aa75000bcb811fb3515d0089b38e4a0ca3b97eb87f85",
                 marks=pytest.mark.stretch),
])
def test_fern_past_tl12(tmp_path, capsys, n, k, side, cells, digest):
    path = tmp_path / "fern.pgm"
    code, out, _ = run_cli(capsys, "fern", n, k, "--out", path)
    assert code == 0
    assert (f"TL_{n} D[{k}]: {side}x{side} bitmap, {cells} idempotent cells "
            f"(brute-force {cells}, MATCH)") in out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_fern_check_catches_a_wrong_cell(tmp_path, capsys, monkeypatch):
    tl_fern = halves.tl_fern

    def flipped(*args):
        rows, cols, mask = tl_fern(*args)
        mask[3, 5] = not mask[3, 5]
        return rows, cols, mask

    monkeypatch.setattr(halves, "tl_fern", flipped)
    code, out, _ = run_cli(capsys, "fern", 8, 2, "--out", tmp_path / "fern.pgm")
    assert code == 1
    assert "MISMATCH" in out


def test_fern_never_enumerates(tmp_path, capsys, monkeypatch):
    """fern neither enumerates TL_n nor builds or multiplies a diagram
    object: its orbit works on hook indices and halves, and its check
    takes every product on partner arrays."""
    def refuse(*args, **kwargs):
        raise AssertionError("fern must not enumerate TL_n or build diagram objects")

    monkeypatch.setattr(engine, "enumerate_semigroup", refuse)
    monkeypatch.setattr(engine, "green_structure", refuse)
    monkeypatch.setattr(catalog, "standard_generators", refuse)
    monkeypatch.setattr(Bipartition, "__init__", refuse)
    monkeypatch.setattr(Bipartition, "__mul__", refuse)
    path = tmp_path / "fern.pgm"
    code, out, _ = run_cli(capsys, "fern", 10, 4, "--out", path)
    assert code == 0
    assert ("TL_10 D[4]: 90x90 bitmap, 5206 idempotent cells "
            "(brute-force 5206, MATCH)") in out
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "f2d661f0d422002d88e064dfe6ce4fded51b4975431ff499d947a96817ce3a9f")


@pytest.mark.stretch
def test_green_tl12_stretch(capsys):
    code, out, _ = run_cli(capsys, "green", "TL", 12)
    assert code == 0
    assert "TL_12: 208012 elements, 7 D-classes (linearly ordered)" in out
    assert "D[5]: 88209 elements, eggbox 297x297, 55319 idempotent cells" in out


def test_fern_bad_dclass(tmp_path, capsys):
    code, out, err = run_cli(capsys, "fern", "4", "9", "--out", tmp_path / "x.pgm")
    assert (code, out, err) == (2, "", "error: TL_4 has no D-class index 9\n")
    assert not (tmp_path / "x.pgm").exists()


@pytest.mark.parametrize("n", [0, -2])
def test_fern_refuses_a_degree_below_one(tmp_path, capsys, n):
    """A degree below 1 is refused as such, not as a missing D-class."""
    code, out, err = run_cli(capsys, "fern", n, 0, "--out", tmp_path / "x.pgm")
    assert (code, out, err) == (2, "", "error: degree must be >= 1\n")
    assert not (tmp_path / "x.pgm").exists()


def test_fern_degree_cap(tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "fern", 18, 8, "--out", tmp_path / "x.pgm")
    assert code == 2
    assert "TL_18 D[8] has 142420356 cells, over the fern cell bound of 16777216" in err
    # 998,001 cells are in bound, but each orbit is 999,000 products of degree 1000
    code, _, err = run_cli(capsys, "fern", 1000, 1, "--out", tmp_path / "x.pgm")
    assert code == 2
    assert ("each half-diagram orbit of TL_1000 D[1] has 999000000 point-products, "
            "over the orbit bound of 4194304") in err
    # 249,500 products of degree 500: about a minute of orbit
    code, _, err = run_cli(capsys, "fern", 500, 1, "--out", tmp_path / "x.pgm")
    assert code == 2
    assert ("each half-diagram orbit of TL_500 D[1] has 124750000 point-products, "
            "over the orbit bound of 4194304") in err
    assert time.perf_counter() - start < 1.0
    assert not (tmp_path / "x.pgm").exists()


def test_fern_of_a_wide_single_cell(tmp_path, capsys):
    """TL_n D[0] is the identity alone: n - 1 hooks of degree n and one
    cell, in bound and quick to check.  TL_2048 D[0] is the widest the
    orbit bound admits (4,192,256 point-products)."""
    for n in (200, 2048):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "fern", n, 0, "--out", tmp_path / "x.pgm")
        assert time.perf_counter() - start < 2.0
        assert code == 0
        assert f"TL_{n} D[0]: 1x1 bitmap, 1 idempotent cells (brute-force 1, MATCH)" in out


def test_fern_unwritable_out_is_an_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "fern", 4, 1, "--out", tmp_path / "no" / "x.pgm")
    assert code == 2
    assert err.startswith("error: ") and "No such file or directory" in err
    assert "Traceback" not in err


def test_green_unwritable_json_is_an_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "green", "T", 2, "--json", tmp_path / "no" / "g.json")
    assert code == 2
    assert "T_2: 4 elements" in out
    assert err.startswith("error: ") and "No such file or directory" in err


def test_unsupported_family_degree_errors(capsys):
    code, _, err = run_cli(capsys, "census", "B", "3")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("family,n,order", [("TL", 6, 132), ("S", 6, 720), ("Br", 6, 10395)])
def test_census_refuses_before_enumerating(capsys, monkeypatch, family, n, order):
    monkeypatch.setattr(engine, "enumerate_family",
                        lambda *_, **__: pytest.fail("census enumerated"))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "census", family, n)
    assert code == 2 and not out
    assert err == (f"error: {family}_{n} has {order} elements, "
                   "over the census bound of 128\n")
    assert time.perf_counter() - start < 1.0


def _bell_triangle(n):
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def test_closed_form_at_any_degree(capsys):
    code, out, _ = run_cli(capsys, "order", "P", 300)
    assert code == 0
    assert f"closed form: {_bell_triangle(600)}\n" in out
    assert "infeasible" in out
    code, out, err = run_cli(capsys, "census", "P", 300)
    assert code == 2 and "over the census bound of 128" in err and not out


def _digits(n):
    # decimal's own conversion, not bounded by the int-to-str digit limit
    return str(decimal.Context(prec=decimal.MAX_PREC).create_decimal(n))


def test_order_prints_closed_form_past_4300_digits(capsys):
    code, out, _ = run_cli(capsys, "order", "PB", 60)
    digits = _digits(1 << 14400)
    assert len(digits) == 4335
    assert code == 0 and f"closed form: {digits}\n" in out and "skipped" in out


def test_census_refuses_past_4300_digits(capsys):
    code, out, err = run_cli(capsys, "census", "PB", 60)
    assert code == 2 and not out
    assert f"PB_60 has {_digits(1 << 14400)} elements, over the census bound of 128" in err


def test_census_bound_leaves_green_alone(capsys):
    code, out, _ = run_cli(capsys, "green", "P", 4)
    assert code == 0 and "P_4: 4140 elements" in out


def test_census_bound_leaves_order_alone(capsys):
    code, out, _ = run_cli(capsys, "order", "T", 4)
    assert code == 0 and "enumerated:  256  MATCH" in out


def test_census_bound_leaves_fern_alone(tmp_path, capsys):
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "fern", 18, 8, "--out", tmp_path / "x.pgm")
    assert code == 2 and "142420356 cells" in err and "census" not in err
    assert time.perf_counter() - start < 1.0
    code, out, _ = run_cli(capsys, "fern", 8, 2, "--out", tmp_path / "x.pgm")
    assert code == 0 and "20x20 bitmap" in out and "MATCH" in out


@pytest.mark.parametrize("family,n,order", [("T", 7, 823543), ("P", 6, 4213597)])
def test_green_refuses_before_enumerating(capsys, family, n, order):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "green", family, n)
    assert code == 2 and not out
    assert f"{order} elements" in err and "bound of 250000" in err
    assert time.perf_counter() - start < 1.0


def test_jobs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "I", "3", "--jobs", "0"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "diagsemi", "order", "S", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert "MATCH" in proc.stdout


def test_a_census_in_one_process_loads_no_multiprocessing(tmp_path):
    """A census at ``--jobs 1`` forks no worker, so it loads neither
    ``multiprocessing`` nor the ``socket`` module of its pipes."""
    script = ("import sys; from diagsemi.cli import main; "
              f"code = main(['census', 'T', '3', '--stats', '--jobs', '1', '--out', {str(tmp_path)!r}]); "
              "print(code, *sorted({'multiprocessing', 'socket'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "up to conjugacy: 283" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "0"
