import os
import sys
from importlib import resources

import pytest

from makan import annotate, load_default_resources, read_annotations


@pytest.fixture(scope="session")
def bundle():
    """(semantic map, seed lexicon, compiled rule pack, variant table)."""
    return load_default_resources()


@pytest.fixture(scope="session")
def suite_gold():
    suite = resources.files("makan").joinpath("resources/suite")
    docs = [read_annotations(p) for p in sorted(suite.iterdir(), key=lambda p: p.name)]
    assert docs, "shipped suite is missing"
    return docs


@pytest.fixture(scope="session")
def suite_system(bundle, suite_gold):
    smap, lex, grammar, variants = bundle
    return [
        annotate(d.text, lex, grammar, smap, variants=variants, doc_id=d.doc_id)
        for d in suite_gold
    ]


@pytest.fixture(scope="session")
def run(bundle):
    smap, lex, grammar, variants = bundle

    def _run(text):
        return annotate(text, lex, grammar, smap, variants=variants, doc_id="t")

    return _run


@pytest.fixture()
def umask_022():
    """The process umask at 022 for the test, as most systems set it; restored after. POSIX modes only."""
    if sys.platform == "win32":
        pytest.skip("Windows keeps no POSIX file modes")
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)
