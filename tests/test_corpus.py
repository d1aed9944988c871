"""The differential corpus still gives the colorings and refusals recorded
in ``corpus_digests.txt`` (see ``corpus.py``)."""

from corpus import DIGESTS, digest_lines


def test_corpus_matches_recorded_digests():
    assert digest_lines() == DIGESTS.read_text(encoding="utf-8").splitlines()
