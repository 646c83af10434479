import importlib
from pathlib import Path

import pytest

from psldesigns import gf

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    """perfbench/tracing.py, whose tables name the functions it wraps."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        yield importlib.import_module("tracing")


@pytest.fixture(scope="session")
def f13():
    return gf.make_prime_field(13)


@pytest.fixture(scope="session")
def f17():
    return gf.make_prime_field(17)


@pytest.fixture(scope="session")
def f29():
    return gf.make_prime_field(29)


@pytest.fixture(scope="session")
def f41():
    return gf.make_prime_field(41)


@pytest.fixture(scope="session")
def f61():
    return gf.make_prime_field(61)


@pytest.fixture(scope="session")
def f9():
    return gf.make_extension_field(3, 2)


@pytest.fixture(scope="session")
def f25():
    return gf.make_extension_field(5, 2)


@pytest.fixture(scope="session")
def f49():
    return gf.make_extension_field(7, 2)
