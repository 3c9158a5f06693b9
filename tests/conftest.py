"""Shared geometry fixtures.

Most tests build their own small cases; these fixtures cover the one
configuration that several files probe from different angles (unit
interval, 32 modes, 4 cosine-node actuators).
"""

import pytest

from heattrack.placement import ActuatorSet, dct_nodes_interval, sampling_matrix
from heattrack.spectral import DomainSpec, enumerate_modes


@pytest.fixture(scope="session")
def unit_interval():
    return DomainSpec.interval(1.0, kappa=1.0)


@pytest.fixture(scope="session")
def table32(unit_interval):
    return enumerate_modes(unit_interval, 32)


@pytest.fixture(scope="session")
def dct4(unit_interval):
    return ActuatorSet(unit_interval, dct_nodes_interval(4, 1.0))


@pytest.fixture(scope="session")
def matrices4(table32, dct4):
    return sampling_matrix(dct4, table32, 4)
