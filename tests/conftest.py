import pytest

from geomcode import Field, build_conic_structure, build_hyperbolic_structure
from geomcode.constructions import hyperbolic_labels


@pytest.fixture(scope="session")
def f3():
    return Field(3)


@pytest.fixture(scope="session")
def f5():
    return Field(5)


@pytest.fixture(scope="session")
def f7():
    return Field(7)


@pytest.fixture(scope="session")
def f9():
    return Field(3, 2)


@pytest.fixture(scope="session")
def conic5(f5):
    return build_conic_structure(f5)


@pytest.fixture(scope="session")
def conic7(f7):
    return build_conic_structure(f7)


@pytest.fixture(scope="session")
def conic9(f9):
    return build_conic_structure(f9)


@pytest.fixture(scope="session")
def conic25():
    return build_conic_structure(Field(5, 2))


@pytest.fixture(scope="session")
def hyp3(f3):
    return build_hyperbolic_structure(f3)


@pytest.fixture(scope="session")
def hyp5(f5):
    return build_hyperbolic_structure(f5)


@pytest.fixture(scope="session")
def hyp3_labels(f3):
    """The (points, blocks) labels of hyp3, in row and column order."""
    return hyperbolic_labels(f3)
