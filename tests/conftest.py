import pytest
from hypothesis import settings

from corrleak.leakage import WiretapAnalyzer
from corrleak.seqmodel import SequenceModel
from oracle import reference_scheme

# Property tests draw the same examples on every run and keep no example
# database, so a pass or a failure depends on the code alone.
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def scheme():
    return reference_scheme()


@pytest.fixture(scope="session")
def hamming7():
    return SequenceModel(kind="hamming", K=7)


@pytest.fixture(scope="session")
def analyzer(scheme, hamming7):
    return WiretapAnalyzer(scheme, hamming7)
