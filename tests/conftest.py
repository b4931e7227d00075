"""Point the CLI subprocesses the tests start at this checkout's ``src``.

``pythonpath`` in ``pyproject.toml`` covers in-process imports only; child
processes see ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)
