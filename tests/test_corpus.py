"""The byte-identity corpus: every argv of tests/corpus.json, run in process
at --threads 1 and 2, prints the stored bytes and exits with the stored code.
tests/update_corpus.py rewrites the corpus."""

import json
import shlex

import pytest

from update_corpus import CORPUS, argvs, entry

_CORPUS = json.loads(CORPUS.read_text())


def test_corpus_holds_every_argv():
    """The README examples (at reduced n) and the extra argvs, in order."""
    assert list(_CORPUS) == [shlex.join(argv) for argv in argvs()]


@pytest.mark.parametrize("threads", [1, 2])
def test_corpus_bytes(threads):
    moved = [key for key, stored in _CORPUS.items()
             if entry(shlex.split(key), threads) != stored]
    assert moved == []
