"""The differential corpus still gives the colorings and refusals recorded
in ``corpus_digests.txt`` (see ``corpus.py``)."""

import pytest

from clustercolor import ClusteringBoundError, three_color_lists
from corpus import DIGESTS, digest_lines, refusals


def test_corpus_matches_recorded_digests():
    assert digest_lines() == DIGESTS.read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "args", [pytest.param(args, id=name) for name, args in refusals()]
)
def test_each_refusal_names_a_witness_of_the_measured_size(args):
    with pytest.raises(ClusteringBoundError) as err:
        three_color_lists(*args)
    assert len(err.value.witness) == err.value.measured
