"""Child processes that tests start (``python -m mglab.cli``) import the
package from this checkout's ``src``, as the test process itself does."""
import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_pythonpath():
    inherited = os.environ.get("PYTHONPATH")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(p for p in (SRC, inherited) if p))
        yield
