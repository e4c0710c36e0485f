import importlib.util
from pathlib import Path

import pytest

from meanset import load_bundled
from meanset.corpus import BUNDLED


@pytest.fixture(scope="session")
def bundles():
    """Every bundled complex with its point set, loaded once per run."""
    return {name: load_bundled(name) for name in BUNDLED}


@pytest.fixture(scope="session")
def tool():
    """``tools/families.py``, loaded as a module once per run."""
    path = Path(__file__).resolve().parents[1] / "tools" / "families.py"
    spec = importlib.util.spec_from_file_location("families", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
