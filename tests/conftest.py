import numpy as np
import pytest

from nlbiharm import discretize, get_kernel, make_domain


@pytest.fixture(scope="session")
def tent1d():
    return get_kernel("tent")


@pytest.fixture(scope="session")
def tent2d():
    return get_kernel("tent")


@pytest.fixture(scope="session")
def domain64():
    return make_domain(1, (0.0, 1.0), 64, 0.2)


@pytest.fixture(scope="session")
def stencil64(tent1d, domain64):
    return discretize(tent1d, 0.2, domain64)


@pytest.fixture(scope="session")
def domain16():
    return make_domain(1, (0.0, 1.0), 16, 0.25)


@pytest.fixture(scope="session")
def stencil16(tent1d, domain16):
    return discretize(tent1d, 0.25, domain16)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
