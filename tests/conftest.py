import numpy as np
import pytest

import oracles
from lcdsubspace.constructions import bush_schemes, theorem_pipeline
from lcdsubspace.drg import Graph, scheme_from_drg
from lcdsubspace.gf import GF, field_new
from lcdsubspace.hadamard import UnbiasedSet, bush_unbiased_pair_16


@pytest.fixture(scope="session")
def f2():
    return field_new(2, 1)


@pytest.fixture(scope="session")
def f3():
    return field_new(3, 1)


@pytest.fixture(scope="session")
def f4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def f5():
    return field_new(5, 1)


@pytest.fixture(scope="session")
def f8():
    return field_new(2, 3)


@pytest.fixture(scope="session")
def f9():
    return field_new(3, 2)


@pytest.fixture(scope="session")
def all_fields(f2, f3, f4, f8, f9):
    return (f2, f3, f4, f8, f9)


@pytest.fixture
def excess_rank_asks(monkeypatch):
    """(U, W, cap) of every GF.excess_rank call, in the order called."""
    asks = []
    real = GF.excess_rank

    def spy(self, U, W, cap=None):
        asks.append((U, W, cap))
        return real(self, U, W, cap)

    monkeypatch.setattr(GF, "excess_rank", spy)
    return asks


@pytest.fixture(scope="session")
def petersen():
    return Graph(np.array(oracles.petersen_adjacency(), dtype=np.int64))


@pytest.fixture(scope="session")
def cube():
    return Graph(np.array(oracles.cube_adjacency(), dtype=np.int64))


@pytest.fixture(scope="session")
def c4():
    return Graph(np.array(oracles.cycle_adjacency(4), dtype=np.int64))


@pytest.fixture(scope="session")
def c6():
    return Graph(np.array(oracles.cycle_adjacency(6), dtype=np.int64))


@pytest.fixture(scope="session")
def k44():
    return Graph(np.array(oracles.complete_bipartite_adjacency(4, 4), dtype=np.int64))


@pytest.fixture(scope="session")
def petersen_scheme(petersen):
    return scheme_from_drg(petersen)


@pytest.fixture(scope="session")
def c4_scheme(c4):
    return scheme_from_drg(c4)


@pytest.fixture(scope="session")
def k44_scheme(k44):
    return scheme_from_drg(k44)


@pytest.fixture(scope="session")
def order4_pair():
    from lcdsubspace.hadamard import search_unbiased_extension, sylvester

    return search_unbiased_extension(UnbiasedSet([sylvester(2)])).found


@pytest.fixture(scope="session")
def bush_pair():
    return bush_unbiased_pair_16()


@pytest.fixture(scope="session")
def bush_uset(bush_pair):
    return UnbiasedSet(list(bush_pair))


@pytest.fixture(scope="session")
def bush_pair_schemes(bush_uset):
    return bush_schemes(bush_uset)


@pytest.fixture(scope="session")
def thm59_report(bush_pair):
    from lcdsubspace.schemes import EquitablePartition

    return theorem_pipeline("thm59", p=2, matrices=list(bush_pair),
                            partition=EquitablePartition.singletons(96))
