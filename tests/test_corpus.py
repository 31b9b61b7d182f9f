"""The corpus of run shapes in `corpus.py` against its recorded block digests."""

import json

from .corpus import GOLDEN, digests, first_difference


def test_corpus_matches_the_recorded_digests():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(recorded) >= 40
    difference = first_difference(digests(), recorded)
    assert difference is None, difference


def test_first_difference_names_the_shape_array_and_block():
    recorded = {"a": {"settled": None, "alpha": ["0", "1"]}, "b": {"settled": 65, "alpha": ["2"]}}
    changed = json.loads(json.dumps(recorded))
    assert first_difference(changed, recorded) is None
    changed["b"]["alpha"] = ["3"]
    changed["a"]["alpha"][1] = "4"
    assert first_difference(changed, recorded) == "shape a, alpha: block 1 (rows 64-127) differs"
    only = first_difference(recorded, {**recorded, "c": {}})
    assert only == "shape c: only in the recorded corpus"
    changed = json.loads(json.dumps(recorded))
    changed["b"]["settled"] = None
    assert first_difference(changed, recorded) == "shape b, settled: None, recorded 65"
