"""Point the few subprocesses the tests start at this checkout's ``src``.

Most CLI tests call ``cli.main`` in process (``tests/cli_runner.py``). A child
process stays where the process is the subject:

- BLAS thread counts, which OpenBLAS reads at start-up:
  ``test_cli.py::TestDeterminism::test_outputs_independent_of_blas_thread_count``
  and ``::test_quantize_independent_of_blas_threads``, and
  ``test_toy.py::TestMemoryLayout::test_train_toy_outputs_independent_of_blas_threads``;
- a warning printed, not raised, under ``PYTHONWARNINGS=default``:
  ``test_cli.py::TestTrainToy::test_non_finite_run_writes_nothing`` and
  ``TestQuantizeAndEval::test_alpha_whose_scale_leaves_float32_is_named``;
- the README's examples as written, in ``test_readme.py``.

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
