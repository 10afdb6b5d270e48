"""Every run of the golden check set reproduces its committed hashes (see
tests/golden.py for the set and for how to rewrite the file)."""

import json

import golden


def test_outputs_match_golden_file():
    want = json.loads(golden.GOLDEN.read_text())
    got = golden.compute()
    assert len(got["runs"]) == 36 + 6 + 16
    assert golden.moved(want, got) == [], "outputs moved; see tests/golden.py"
