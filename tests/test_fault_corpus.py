"""The parser's outcome on every fault of the single-fault corpus.

``fault_corpus`` builds the faults; ``tests/golden/faults.json.gz`` holds
the outcome of each, a ScenarioError message or "accepted". Any warning
fails the test: a finite entry must not overflow a checker's arithmetic.
"""

import warnings

import pytest

import fault_corpus

FILES = fault_corpus.corpus_files()
GOLDEN = fault_corpus.load_golden()


def test_corpus_covers_every_file():
    assert sorted(GOLDEN) == sorted(FILES)


@pytest.mark.parametrize("name", sorted(FILES))
def test_every_fault_keeps_its_outcome(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        actual = fault_corpus.outcomes(name, FILES[name])
    expected = GOLDEN[name]
    assert list(actual) == list(expected)
    changed = [(fault, expected[fault], actual[fault]) for fault in expected if actual[fault] != expected[fault]]
    assert not changed, changed[:5]
