"""One way to run the CLI from a test: ``run_cli`` calls ``cli.main`` in this process.

It returns the ``subprocess.CompletedProcess`` that a ``python -m deltaquant.cli``
launch would, so a test reads ``returncode``, ``stdout`` and ``stderr`` either way.
``CLI`` serves the few tests whose subject is the process itself (BLAS thread
counts read at start-up, warnings printed under ``PYTHONWARNINGS=default``, the
``-m`` entry point); each of those calls ``subprocess.run(CLI + ...)`` itself.
"""

import contextlib
import io
import subprocess
import sys

from deltaquant import cli

CLI = [sys.executable, "-m", "deltaquant.cli"]


def run_cli(*args) -> subprocess.CompletedProcess:
    argv = [str(a) for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, or a flag it rejects
            code = exc.code or 0
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())
