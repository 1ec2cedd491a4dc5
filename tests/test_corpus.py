import json

from .corpus import MANIFEST, build


def test_outputs_match_the_manifest(tmp_path):
    """Every capture, output file, stdout, stderr and exit code of the corpus
    runs is byte-identical to the committed manifest (see tests/corpus.py)."""
    expected = json.loads(MANIFEST.read_text())
    digests = build(tmp_path)
    assert sorted(digests) == sorted(expected)
    assert {k: v for k, v in digests.items() if expected[k] != v} == {}
