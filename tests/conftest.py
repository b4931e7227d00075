"""Point the CLI subprocesses the tests start at this checkout's ``src``.

``pythonpath`` and ``filterwarnings`` in ``pyproject.toml`` cover in-process
code only; child processes see ``PYTHONPATH`` and ``PYTHONWARNINGS``, so a
numpy ``RuntimeWarning`` fails a CLI run as it fails an in-process test.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
os.environ["PYTHONWARNINGS"] = "error::RuntimeWarning"
