import warnings

import numpy as np
import pytest

from itergelfand.corrector import EtaSpaceConfig, picard_solve
from itergelfand.singular import build_singular

# On a failing property Hypothesis imports its patch writer, which imports
# libcst, and libcst's import raises mypy_extensions' TypedDict
# DeprecationWarning; under filterwarnings = error that turns the failure
# report into a pytest INTERNALERROR.  Importing the writer here, with that one
# warning ignored, leaves nothing to warn about then.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:   # libcst is not installed
        pass


@pytest.fixture(scope="session")
def eta_n3m1():
    return picard_solve(3, 1)


@pytest.fixture(scope="session")
def sol_n3m1():
    # t_max = 280 keeps the peel region of rho = 6 shots inside the
    # comparison window used by the intersection tests
    return build_singular(3, 1, EtaSpaceConfig(t_max=280.0))


@pytest.fixture(scope="session")
def sol_n3m2():
    return build_singular(3, 2)


@pytest.fixture(scope="session")
def sol_oracle_n3():
    return build_singular(3, 0)


@pytest.fixture(scope="session")
def curve_n3m1():
    from itergelfand.branch import trace_curve
    grid = np.arange(0.1, 4.8001, 0.02)
    return trace_curve(3, 1, grid, rtol=1e-10, atol=1e-12)


@pytest.fixture(scope="session")
def curve_n11m1():
    from itergelfand.branch import trace_curve
    grid = np.arange(0.1, 4.8001, 0.02)
    return trace_curve(11, 1, grid, rtol=1e-10, atol=1e-12)
