"""Smoke test of the benchmark: every workload at a tiny size, with no timing bound.

    python3 bench/smoke.py

It runs ``run.py --workload all --size tiny`` once untraced and once traced
and checks that:

* both runs exit 0 and report ``correct`` with no failed operation;
* every metric named in ``BENCHMARK.json`` is printed for every workload
  with a finite value and the unit ``BENCHMARK.json`` gives it (end-to-end
  metrics untraced, per-layer metrics traced);
* the traced and untraced runs write byte-identical artifacts and outputs;
* a copy holding only ``BENCHMARK.json`` and the benchmark's own files
  exits non-zero without printing a result.

It is not part of the repository's test suite; it takes under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode not in (0, 2):
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def main() -> int:
    problems: list[str] = []
    workloads = [w["name"] for w in BENCH["workloads"]]
    outputs: dict[str, dict] = {}
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        code, lines = run("--workload", "all", "--size", "tiny", "--seed", "0",
                          "--seconds", "0.5", "--trace", trace)
        if code != 0 or not lines:
            problems.append(f"--trace {trace}: exit code {code}")
            continue
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            problems.append(f"--trace {trace}: correct={result['correct']} failed={result['failed']}")
        for workload in workloads:
            for metric in BENCH[key]:
                got = result["metrics"].get(f"{workload}/{metric['name']}")
                if got is None:
                    problems.append(f"--trace {trace}: {workload} does not print {metric['name']}")
                elif got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
                    problems.append(f"--trace {trace}: {workload} {metric['name']} printed as {got}")
        infos = [json.loads(line[len("info: "):]) for line in lines if line.startswith("info: ")]
        outputs[trace] = {i["workload"]: (i["artifact_sha256"], i["outputs_sha256"]) for i in infos}
    if len(outputs) == 2:
        for workload in workloads:
            if outputs["0"].get(workload) != outputs["1"].get(workload):
                problems.append(f"{workload}: traced and untraced outputs differ")

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("--workload", workloads[0], "--seed", "0", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without the package: exit code {code}, output {lines[-1:]}")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
