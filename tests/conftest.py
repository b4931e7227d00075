"""Point the CLI subprocesses the tests start at this checkout's ``src``.

``pythonpath`` and ``filterwarnings`` in ``pyproject.toml`` cover in-process
code only; child processes see ``PYTHONPATH`` and ``PYTHONWARNINGS``, so a
numpy ``RuntimeWarning`` fails a CLI run as it fails an in-process test.

``HYPOTHESIS_PROFILE=ci`` selects derandomized property tests that print a
reproduction blob on failure, so a failure in CI replays locally.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"
