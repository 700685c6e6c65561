import importlib.util
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, os.path.dirname(__file__))

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def golden_trace():
    """tools/reach.py's one traced run of the golden command list: the
    records test_golden compares and the functions test_reach reads."""
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    return reach.trace_golden_list()
