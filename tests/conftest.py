import pytest

from corrleak.leakage import WiretapAnalyzer
from corrleak.seqmodel import SequenceModel
from corrleak.swcodec import reference_scheme


@pytest.fixture(scope="session")
def scheme():
    return reference_scheme()


@pytest.fixture(scope="session")
def hamming7():
    return SequenceModel(kind="hamming", K=7)


@pytest.fixture(scope="session")
def analyzer(scheme, hamming7):
    return WiretapAnalyzer(scheme, hamming7)
