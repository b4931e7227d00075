"""deltaquant benchmark: seeded workloads, end-to-end metrics, traced per-layer breakdown.

    python3 bench/run.py --workload block-1024rows --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

One run generates the workload's inputs from ``--seed``, times ``import
deltaquant`` plus loading the input containers (``setup_s``, median of
several reps), runs one untimed warm-up pass of the pipeline and checks its
outputs, then repeats timed passes for ``--seconds`` and checks that every
pass reproduces the warm-up outputs byte for byte. With ``--trace 1``
untraced and traced passes alternate. A traced pass loads the inputs once
more, as set-up does, then runs the pipeline; its spans give the per-layer
metrics (see ``spans.py``). The difference of the traced and untraced
medians of ``pipeline_s`` is the tracing overhead.

The lines before the last are a human-readable report (every metric with
its unit, direction and sample count) and the environment stamp. The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` (stages
and correctness checks, each counted once) and ``metrics`` (the end-to-end
metrics of ``BENCHMARK.json``, or its per-layer ones with ``--trace 1``).

Inputs and outputs go to ``.bench_work/<workload>/`` at the repository
root. Exit codes: 0 correct, 1 a stage or check failed, 2 the package could
not be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
# the default seed, and one held out to confirm a gain claimed on the default
DEFAULT_SEED = 0
HELDOUT_SEED = 7919
SETUP_REPS = 15
MIN_PASSES = 3

# end-to-end metric -> (unit, better); the first group is gated by BENCHMARK.json
GATED = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "importance_s": ("s", "lower"),
    "eval_s": ("s", "lower"),
    "quantize_weights_per_s": ("weights/s", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "artifact_bits_per_weight": ("bits/weight", "lower"),
    "e2e_output_mse": ("mse", "lower"),
    "search_rtn_loss_ratio": ("ratio", "lower"),
}
# reported but not gated: stages that only some workloads run, and error_rate,
# which is 0 when correct (the gate is the result line's correct/failed)
UNGATED = {
    "train_s": ("s", "lower"),
    "ablate_s": ("s", "lower"),
    "curve_s": ("s", "lower"),
    "save_load_s": ("s", "lower"),
    "error_rate": ("fraction", "lower"),
}


class Tally:
    """Counts operations (stages and checks) attempted and failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)


class Stages:
    """Times named stages; ``times`` holds only the stages that completed."""

    def __init__(self) -> None:
        self.times: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = perf_counter()
        yield
        self.times[name] = perf_counter() - start


def import_deltaquant():
    """Import (or re-import) deltaquant and its CLI from this checkout's ``src``."""
    src = ROOT / "src"
    for name in [m for m in sys.modules if m == "deltaquant" or m.startswith("deltaquant.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    dq = importlib.import_module("deltaquant")
    importlib.import_module("deltaquant.cli")
    if Path(dq.__file__).resolve().parent != src / "deltaquant":
        raise ImportError(f"deltaquant resolved to {dq.__file__}, not to {src}")
    return dq


def tail(samples: list[float], better: str) -> str:
    """The most extreme percentile on the bad side with at least ten samples beyond it.

    Reported only when that percentile lies beyond the median (n > 20).
    """
    n = len(samples)
    if n <= 20:
        return "-"
    ordered = sorted(samples)
    if better == "higher":
        return f"p{100 * 10 // n}={ordered[10]:.6g}"
    return f"p{100 * (n - 10) // n}={ordered[n - 11]:.6g}"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def blas_threads() -> int | None:
    """Thread count the bundled OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def measure(spec, work: Path, seconds: float, trace: bool) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec.prepare(import_deltaquant(), work)

    setup = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        dq = import_deltaquant()
        inputs = spec.load(dq, work)
        setup.append(perf_counter() - start)

    tally = Tally()
    tracer = spans.Tracer() if trace else None
    runs: dict[bool, list[dict]] = {False: [], True: []}
    layers: list[dict] = []
    warm = None
    started = perf_counter()
    while True:
        traced = warm is not None and tracer is not None and len(runs[False]) > len(runs[True])
        first_span = len(tracer.spans) if traced else 0
        stage = Stages()
        try:
            with tracer.active(dq) if traced else contextlib.nullcontext():
                if traced:
                    # the set-up load, traced so that container.load_* covers it
                    spec.load(dq, work)
                start = perf_counter()
                out = spec.run_pass(dq, inputs, stage, work)
                total = perf_counter() - start
            for name in spec.stages:
                tally.add(f"stage:{name}", True)
        except Exception:  # noqa: BLE001 - report the failed stage, then stop
            traceback.print_exc()
            for name in spec.stages:
                tally.add(f"stage:{name}", name in stage.times)
            break
        digest = spec.digest(dq, out, work)
        if warm is None:
            try:
                for name, ok in spec.gate(dq, inputs, out, work):
                    tally.add(name, ok)
            except Exception:  # noqa: BLE001 - a check that crashes has failed
                traceback.print_exc()
                tally.add("gate", False)
            warm = {"digest": digest, "quality": spec.quality(dq, out, work)}
            started = perf_counter()
            continue
        tally.add("traced_output_identical" if traced else "output_identical", digest == warm["digest"])
        runs[traced].append({"pipeline_s": total, **stage.times})
        if traced:
            layers.append(spans.layer_metrics(tracer.spans, first_span))
        enough = all(len(runs[kind]) >= MIN_PASSES for kind in ((False, True) if trace else (False,)))
        if enough and perf_counter() - started >= seconds:
            break
    if tracer is not None:
        tracer.write(work / "spans.jsonl")
    return {
        "setup": setup, "runs": runs, "layers": layers, "tally": tally,
        "warm": warm, "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def end_to_end(m: dict) -> dict[str, tuple[float, list[float]]]:
    """Every end-to-end metric this run can report: name -> (value, samples)."""
    runs = m["runs"][False]
    quality = m["warm"]["quality"]
    samples = {name: [r[name] for r in runs] for name in runs[0]} if runs else {}
    metrics = {"setup_s": (statistics.median(m["setup"]), m["setup"])}
    for name, values in samples.items():
        if name != "quantize_s":
            metrics[name] = (statistics.median(values), values)
    rates = [quality["weights"] / t for t in samples.get("quantize_s", [])]
    metrics["quantize_weights_per_s"] = (statistics.median(rates), rates)
    metrics["peak_rss_mb"] = (m["rss_mib"], [m["rss_mib"]])
    for name in ("e2e_output_mse", "search_rtn_loss_ratio"):
        metrics[name] = (quality[name], [quality[name]])
    bits = 8 * quality["artifact_bytes"] / quality["weights"]
    metrics["artifact_bits_per_weight"] = (bits, [bits])
    tally = m["tally"]
    rate = len(tally.failed) / tally.attempted
    metrics["error_rate"] = (rate, [rate])
    return metrics


def per_layer(m: dict) -> dict[str, tuple[float, list[float]]]:
    layers = m["layers"]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        metrics[name] = (statistics.median(values), values)
    traced = [r["pipeline_s"] for r in m["runs"][True]]
    untraced = [r["pipeline_s"] for r in m["runs"][False]]
    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (overhead, [overhead])
    return metrics


def print_table(title: str, rows: list[tuple[str, float, str, str, list[float]]]) -> None:
    print(f"# {title}")
    print(f"{'metric':42} {'median':>14} {'unit':12} {'better':7} {'n':>4}  tail")
    for name, value, unit, better, samples in rows:
        print(f"{name:42} {value:14.6g} {unit:12} {better:7} {len(samples):4d}  {tail(samples, better)}")


def run_one(args) -> int:
    spec = dataclasses.replace(WORKLOADS[args.size][args.workload], seed=args.seed)
    try:
        import_deltaquant()
    except ImportError as exc:
        print(f"cannot import deltaquant from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    m = measure(spec, work, args.seconds, bool(args.trace))
    tally = m["tally"]
    correct = m["warm"] is not None and not tally.failed
    result = {"correct": correct, "attempted": tally.attempted, "failed": len(tally.failed)}
    if m["warm"] is None or not m["runs"][False] or (args.trace and not m["layers"]):
        result["metrics"] = {}
    elif args.trace:
        layer = per_layer(m)
        print_table(
            f"{args.workload} seed {args.seed}: per-layer metrics, median per traced pass "
            f"({len(m['layers'])} traced, {len(m['runs'][False])} untraced passes)",
            [(k, v, spans.unit_of(k), spans.better_of(k), s) for k, (v, s) in layer.items()],
        )
        print(f"# {spans.COMPUTED_NOTE}")
        result["metrics"] = {k: {"value": v, "unit": spans.unit_of(k)} for k, (v, _) in layer.items()}
    else:
        e2e = end_to_end(m)
        units = {**GATED, **UNGATED}
        print_table(
            f"{args.workload} seed {args.seed}: end-to-end metrics "
            f"({len(m['runs'][False])} timed passes; a tail needs n > 20)",
            [(k, v, *units[k], s) for k, (v, s) in e2e.items()],
        )
        result["metrics"] = {k: {"value": e2e[k][0], "unit": GATED[k][0]} for k in GATED}
    for name in sorted(set(tally.failed)):
        print(f"# FAILED {name} x{tally.failed.count(name)}")
    artifact = work / "artifact.dqt"
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "artifact_sha256": hashlib.sha256(artifact.read_bytes()).hexdigest()
        if artifact.exists() else None,
        "outputs_sha256": m["warm"] and m["warm"]["digest"],
    }
    print("info: " + json.dumps(info, sort_keys=True))
    print("env: " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload, one after another, each in its own process."""
    code = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS[args.size]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = max(code, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS["full"], "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="time spent in timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(WORKLOADS), default="full",
                        help="'tiny' shrinks every workload for the smoke test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
