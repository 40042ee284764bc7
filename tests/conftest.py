import sys
from pathlib import Path

import pytest
from hypothesis import settings

# Every run of the suite draws the same hypothesis inputs, so a failure
# that depends on a draw shows on every run or on none.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

TESTS_DIR = Path(__file__).parent
sys.path.insert(0, str(TESTS_DIR))

from mathverify.extraction import read_corpus
from mathverify.pipeline import PipelineOptions, Tables


@pytest.fixture(scope="session")
def tables():
    return Tables(PipelineOptions())


@pytest.fixture(scope="session")
def mini_corpus():
    from importlib import resources
    path = resources.files("mathverify").joinpath("data", "mini_corpus.jsonl")
    return read_corpus(str(path))


@pytest.fixture(scope="session")
def chapter_file():
    return TESTS_DIR / "data" / "chapter_ef_sample.tex"
