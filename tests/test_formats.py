import json
import random

import numpy as np
import pytest

from diagsemi.census import (
    CensusRecord,
    census_up_to_conjugacy,
    joint_histogram,
    size_histogram,
    write_histogram_csv,
    write_joint_csv,
    write_records_jsonl,
)
from diagsemi.elements import (
    FAMILY_CODES,
    element_from_json,
    element_to_json,
)
from diagsemi.engine import green_structure, write_green_json, write_pgm

from .conftest import monoid
from .samplers import random_element


def test_element_json_roundtrip_every_family():
    rng = random.Random(31)
    for family in FAMILY_CODES:
        n = 1 if family == "PB" else 2 if family == "B" else 3
        for _ in range(25):
            x = random_element(family, n, rng)
            doc = element_to_json(x)
            assert json.loads(json.dumps(doc)) == doc
            y = element_from_json(doc)
            assert x == y
            assert element_to_json(y) == doc  # bit-exact re-encode


def test_element_json_shapes():
    from diagsemi.elements import Bipartition, MapElement, PBR

    p = element_to_json(PBR.from_edges(2, [(0, 2), (3, 1)]))
    assert p == {"type": "pbr", "degree": 2, "edges": [[0, 2], [3, 1]]}
    b = element_to_json(Bipartition.from_blocks(2, [(0, 1), (2, 3)]))
    assert b == {"type": "bipartition", "degree": 2, "blocks": [[0, 1], [2, 3]]}
    m = element_to_json(MapElement(3, "partial", [None, 0, 2]))
    assert m == {"type": "map", "degree": 3, "kind": "partial", "image": [None, 0, 2]}
    r = element_to_json(MapElement(2, "relation", [0b10, 0b11]))
    assert r == {"type": "map", "degree": 2, "kind": "relation",
                 "matrix": [[0, 1], [1, 1]]}


@pytest.mark.parametrize("matrix", [
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],  # degree 3, declared 2
    [[1, 0]],  # too few rows
    [[1, 0], [0, 1, 0]],  # a ragged row
    [[1, 0], [0]],
    [[2, 0], [0, 1]],  # not 0/1
    [[1, -1], [0, 1]],
])
def test_relation_json_must_be_a_degree_square_of_bits(matrix):
    doc = {"type": "map", "degree": 2, "kind": "relation", "matrix": matrix}
    with pytest.raises(ValueError, match="relation of degree 2"):
        element_from_json(doc)


def test_pgm_writer(tmp_path):
    bitmap = np.array([[True, False], [False, True], [True, True]])
    path = tmp_path / "grid.pgm"
    write_pgm(path, bitmap, "config line")
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "# config line"
    assert lines[2] == "2 3"
    assert lines[3] == "255"
    pixels = [int(v) for row in lines[4:] for v in row.split()]
    assert pixels == [0, 255, 255, 0, 0, 0]  # idempotent = black


def test_green_json_export(tmp_path):
    S = monoid("T", 2)
    green = green_structure(S)
    path = tmp_path / "green.json"
    write_green_json(path, green, {"family": "T", "n": 2})
    doc = json.loads(path.read_text())
    assert doc["size"] == 4
    assert len(doc["r_class"]) == 4
    assert len(doc["eggbox"]) == len(doc["d_order"]) == 2
    assert doc["config"] == {"family": "T", "n": 2}


def test_census_csv_and_jsonl(tmp_path):
    records, _ = census_up_to_conjugacy(monoid("I", 2))
    cfg = "diagsemi census family=I n=2"

    hist_path = tmp_path / "sizes.csv"
    write_histogram_csv(hist_path, size_histogram(records), cfg)
    lines = hist_path.read_text().splitlines()
    assert lines[0] == f"# {cfg}"
    assert lines[1] == "size,count"
    total = sum(int(line.split(",")[1]) for line in lines[2:])
    assert total == len(records) == 23

    joint_path = tmp_path / "joint.csv"
    write_joint_csv(joint_path, joint_histogram(records, "d-classes"), "d-classes", cfg)
    lines = joint_path.read_text().splitlines()
    assert lines[1] == "size,d-classes,count"
    assert sum(int(line.split(",")[2]) for line in lines[2:]) == 23

    jsonl_path = tmp_path / "records.jsonl"
    write_records_jsonl(jsonl_path, records, cfg)
    lines = jsonl_path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head == {"config": cfg}
    rows = [json.loads(line) for line in lines[1:]]
    assert len(rows) == 23
    for row in rows:
        assert set(row) == {"representative_mask_hex", "orbit_size", "size",
                            "d_classes", "idempotents", "has_nontrivial_perm"}
        assert int(row["representative_mask_hex"], 16).bit_count() == row["size"]


def test_jsonl_record_lines_match_json_dumps(tmp_path):
    """Each record line is ``json.dumps`` of its ``to_json``, byte for
    byte: the empty set's mask 0, masks wider than 64 bits, and both
    values of ``has_nontrivial_perm``."""
    records, _ = census_up_to_conjugacy(monoid("I", 2))
    records += [CensusRecord(1 << 104 | 1, 24, 2, 2, 1, False),
                CensusRecord((1 << 105) - 1, 1, 105, 17, 40, True)]
    assert records[0].mask == 0
    assert {r.has_nontrivial_perm for r in records} == {False, True}
    path = tmp_path / "records.jsonl"
    config = {"family": "I", "n": 2}
    write_records_jsonl(path, records, config)
    expected = [json.dumps({"config": config})] + [json.dumps(r.to_json()) for r in records]
    assert path.read_text() == "".join(line + "\n" for line in expected)
