"""Workloads of the deltaquant benchmark.

Each workload generates its own seeded inputs, runs one pass of the real
pipeline through the package's public functions, and checks the outputs.
The program under test only ever sees the generated checkpoint and
calibration containers (or, for ``toy-cli``, its own command lines).

Why these three:

* ``block-1024rows`` is search-heavy: 1024 calibration rows are at least
  ``in_features`` on two of the three modules, the side where a Gram-matrix
  loss (``H = X^T X`` once per module) should beat the per-candidate
  output-error matmul.
* ``block-128rows-sweep`` has the same checkpoint but 128 rows, below
  ``in_features`` everywhere, so a Gram path should not win (its bypass
  case); quantize/dequantize dominate the search, and the ablation sweep
  re-quantizes every module once per (signal, fraction).
* ``toy-cli`` drives ``cli.main`` over genuine fine-tuning deltas of a tiny
  MLP: the only workload that exercises ``toy`` and the CLI's own overhead,
  with many small container writes read back by ``curve``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path

import numpy as np

FRACTIONS = (0.01, 0.05, 0.1, 0.3)


class StageFailed(Exception):
    """A CLI stage exited with a non-zero code."""


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _requantize_reproduces(dq, q) -> bool:
    """Decode a module's codes and re-encode them: codes must come back.

    Channel scaling and protection are stripped first, because dividing the
    scale back out is not exact in float32 and protected columns overwrite
    the decoded values; the group codes themselves are idempotent.
    """
    out_f, in_f = q.codes.shape
    bare = dataclasses.replace(
        q,
        channel_scale=np.ones(in_f, dtype=np.float32),
        protected=np.zeros(in_f, dtype=bool),
        protected_values=np.zeros((out_f, 0), dtype=np.float32),
    )
    again = dq.rtn_quantize(dq.dequantize(bare), dq.QuantConfig(q.bits, q.group_size))
    return all(
        np.array_equal(getattr(q, f), getattr(again, f))
        for f in ("codes", "scales", "zero_points")
    )


def _search_checks(dq, post, calib, max_rows, qcfg, results) -> list[tuple[str, bool]]:
    """best_loss <= rtn_loss, and public quant_loss at the chosen scale reproduces it.

    ``results`` yields (module, best_loss, rtn_loss, chosen scale).
    """
    checks = []
    for module, best, rtn, scale in results:
        weight = post[f"{module}.weight"]
        x = calib.inputs[module][:max_rows]
        checks.append((f"best_le_rtn[{module}]", best <= rtn))
        checks.append((
            f"quant_loss_reproduces_best[{module}]",
            dq.quant_loss(weight, x, scale, qcfg) == best,
        ))
    return checks


def _monotone_checks(rows) -> list[tuple[str, bool]]:
    """Per (signal, module), MSE must not grow with the protected fraction.

    ``rows`` yields (signal, fraction, module, mse).
    """
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for signal, fraction, module, mse in rows:
        curves.setdefault((signal, module), []).append((fraction, mse))
    checks = []
    for (signal, module), points in sorted(curves.items()):
        mses = [mse for _, mse in sorted(points)]
        ok = all(b <= a for a, b in zip(mses, mses[1:]))
        checks.append((f"ablation_monotone[{signal},{module}]", ok))
    return checks


@dataclasses.dataclass(frozen=True)
class Block:
    """A chained MLP block with synthetic fine-tuning updates."""

    dims: tuple[int, ...]
    rows: int
    sweep: bool
    seed: int = 0
    bits: int = 3
    group_size: int = 128
    protect: float = 0.01

    @property
    def stages(self) -> tuple[str, ...]:
        base = ("importance_s", "quantize_s", "save_load_s", "eval_s")
        return base + ("ablate_s",) if self.sweep else base

    def _qcfg(self, dq):
        return dq.QuantConfig(self.bits, self.group_size, self.protect)

    @property
    def _meta(self) -> dict[str, str]:
        return {"protect_fraction": repr(self.protect)}

    def prepare(self, dq, work: Path) -> None:
        rng = np.random.default_rng([self.seed, 1])
        model = dq.init_model(self.dims, self.seed)
        pre = dq.checkpoint_map(model, 0)
        post = dq.checkpoint_map(model, 1)
        for layer in model.layers:
            shape = layer.weight.shape
            # log-normal magnitudes with a log-normal scale per input column
            column = np.exp(rng.normal(0.0, 1.0, size=shape[1]))
            update = rng.lognormal(np.log(1e-3), 1.0, size=shape) * column
            update *= rng.choice((-1.0, 1.0), size=shape)
            update[rng.random(shape) < 0.3] = 0.0
            post[f"{layer.name}.weight"] = layer.weight + update.astype(np.float32)
        xrng = np.random.default_rng([self.seed, 2])
        # heavy-tailed inputs (student-t, per-channel log-normal scale) make
        # some channels salient, so the search picks alpha* > 0 on some modules
        channel = np.exp(xrng.normal(0.0, 1.0, size=self.dims[0]))
        x = xrng.standard_t(3.0, size=(self.rows, self.dims[0])) * channel
        _, calib = dq.forward(dq.model_from_map(post), x.astype(np.float32))
        dq.save_container(pre, work / "pre.dqt")
        dq.save_container(post, work / "post.dqt")
        dq.save_container(calib.to_tensor_map(), work / "calib.dqt")

    def load(self, dq, work: Path) -> dict:
        return {
            "pre": dq.load_container(work / "pre.dqt"),
            "post": dq.load_container(work / "post.dqt"),
            "calib": dq.CalibrationSet.from_tensor_map(dq.load_container(work / "calib.dqt")),
        }

    def run_pass(self, dq, inp: dict, stage, work: Path) -> dict:
        qcfg = self._qcfg(dq)
        scfg = dq.SearchConfig(max_calib_rows=self.rows)
        path = work / "artifact.dqt"
        out: dict = {}
        with stage("importance_s"):
            imps = dq.importance_all(
                inp["pre"], inp["post"], dq.MappingConfig(signal="both_ends_zero"), inp["calib"]
            )
        with stage("quantize_s"):
            out["artifact"], out["search"] = dq.quantize_model(
                inp["post"], imps, inp["calib"], scfg, qcfg
            )
        with stage("save_load_s"):
            dq.save_container(dq.artifact_to_map(out["artifact"], self._meta), path)
            out["loaded"] = dq.artifact_from_map(dq.load_container(path))
        with stage("eval_s"):
            out["eval"] = dq.layer_report(inp["post"], out["loaded"], inp["calib"])
        if self.sweep:
            with stage("ablate_s"):
                out["ablation"] = dq.ablate_signals(
                    inp["pre"], inp["post"], inp["calib"],
                    [dq.MappingConfig(signal=s) for s in dq.SIGNALS], list(FRACTIONS), qcfg,
                )
        return out

    def digest(self, dq, out: dict, work: Path) -> str:
        ablation = dq.ablation_csv(out["ablation"]) if self.sweep else ""
        return _sha256(
            (work / "artifact.dqt").read_bytes(),
            out["eval"].to_json().encode(),
            ablation.encode(),
        )

    def gate(self, dq, inp: dict, out: dict, work: Path) -> list[tuple[str, bool]]:
        artifact, loaded = out["artifact"], out["loaded"]
        in_memory = dq.artifact_to_map(artifact, self._meta)
        checks = [("artifact_reloads_equal", dq.load_container(work / "artifact.dqt") == in_memory)]
        for module in sorted(artifact):
            same = dq.dequantize(loaded[module]).tobytes() == dq.dequantize(artifact[module]).tobytes()
            checks.append((f"dequantize_bit_equal[{module}]", same))
        checks += _search_checks(
            dq, inp["post"], inp["calib"], self.rows, self._qcfg(dq),
            ((r.module, r.best_loss, r.rtn_loss, r.scale) for r in out["search"]),
        )
        first = sorted(loaded)[0]
        checks.append((f"requantize_reproduces_codes[{first}]", _requantize_reproduces(dq, loaded[first])))
        if self.sweep:
            checks += _monotone_checks(
                (row.signal, row.fraction, module, mse)
                for row in out["ablation"]
                for module, mse in row.per_module.items()
            )
        return checks

    def quality(self, dq, out: dict, work: Path) -> dict:
        search = out["search"]
        return {
            "weights": sum(q.codes.size for q in out["artifact"].values()),
            "artifact_bytes": (work / "artifact.dqt").stat().st_size,
            "e2e_output_mse": out["eval"].end_to_end["output_mse_fp32_vs_quant"],
            "search_rtn_loss_ratio": sum(r.best_loss for r in search) / sum(r.rtn_loss for r in search),
        }


@dataclasses.dataclass(frozen=True)
class ToyCli:
    """The whole CLI, in process, over a freshly trained toy MLP."""

    dims: str
    steps: int
    snapshot_every: int
    calib_rows: int
    seed: int = 0
    bits: int = 3
    group_size: int = 32
    max_calib_rows: int = 512

    stages = ("train_s", "importance_s", "quantize_s", "eval_s", "ablate_s", "curve_s")

    def _commands(self, work: Path) -> list[tuple[str, list[str]]]:
        run = work / "run"
        pre, post = run / "ckpt_step000000.dqt", run / f"ckpt_step{self.steps:06d}.dqt"
        calib = run / "calib.dqt"
        quant = ["--bits", str(self.bits), "--group-size", str(self.group_size)]
        return [(stage, [str(a) for a in argv]) for stage, argv in [
            ("train_s", ["train-toy", "--dims", self.dims, "--steps", self.steps,
                         "--snapshot-every", self.snapshot_every, "--calib-rows", self.calib_rows,
                         "--seed", self.seed, "--data-seed", self.seed + 1, "--out", run]),
            ("importance_s", ["importance", "--pre", pre, "--post", post,
                              "--out", work / "importance.dqt"]),
            ("quantize_s", ["quantize", "--post", post, "--importance", work / "importance.dqt",
                            "--calib", calib, *quant, "--protect", "0",
                            "--max-calib-rows", self.max_calib_rows,
                            "--out", work / "artifact.dqt"]),
            ("eval_s", ["eval", "--post", post, "--artifact", work / "artifact.dqt",
                        "--calib", calib, "--out", work / "eval.json"]),
            ("ablate_s", ["ablate", "--pre", pre, "--post", post, "--calib", calib, *quant,
                          "--out", work / "ablate.csv"]),
            ("curve_s", ["curve", "--run", run, *quant, "--max-calib-rows", self.max_calib_rows,
                         "--out", work / "curve.csv"]),
        ]]

    @staticmethod
    def _cli(dq, argv: list[str]) -> None:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = dq.cli.main(argv)
        if code != 0:
            raise StageFailed(f"{argv[0]} exited {code}: {captured.getvalue().strip()}")

    def prepare(self, dq, work: Path) -> None:
        self._cli(dq, self._commands(work)[0][1])

    def load(self, dq, work: Path) -> dict:
        run = work / "run"
        return {
            "snapshots": [dq.load_container(p) for p in sorted(run.glob("ckpt_step*.dqt"))],
            "calib": dq.CalibrationSet.from_tensor_map(dq.load_container(run / "calib.dqt")),
        }

    def run_pass(self, dq, inp: dict, stage, work: Path) -> dict:
        for name, argv in self._commands(work):
            with stage(name):
                self._cli(dq, argv)
        return {}

    def digest(self, dq, out: dict, work: Path) -> str:
        names = ("importance.dqt", "artifact.dqt", "artifact.report.jsonl", "eval.json",
                 "ablate.csv", "curve.csv")
        paths = sorted((work / "run").iterdir()) + [work / n for n in names]
        return _sha256(*(p.read_bytes() for p in paths))

    def _search_report(self, work: Path) -> list[dict]:
        lines = (work / "artifact.report.jsonl").read_text().splitlines()
        return [json.loads(line) for line in lines[1:]]

    def gate(self, dq, inp: dict, out: dict, work: Path) -> list[tuple[str, bool]]:
        post, calib = inp["snapshots"][-1], inp["calib"]
        qcfg = dq.QuantConfig(self.bits, self.group_size, 0.0)
        saved = dq.load_container(work / "artifact.dqt")
        loaded = dq.artifact_from_map(saved)
        imps = dq.importances_from_map(dq.load_container(work / "importance.dqt"))
        artifact, _ = dq.quantize_model(
            post, imps, calib, dq.SearchConfig(max_calib_rows=self.max_calib_rows), qcfg
        )
        checks = [("artifact_reloads_equal", dq.artifact_to_map(artifact, saved.meta) == saved)]
        for module in sorted(artifact):
            same = dq.dequantize(loaded[module]).tobytes() == dq.dequantize(artifact[module]).tobytes()
            checks.append((f"dequantize_bit_equal[{module}]", same))
        checks += _search_checks(
            dq, post, calib, self.max_calib_rows, qcfg,
            ((r["module"], r["best_loss"], r["rtn_loss"], loaded[r["module"]].channel_scale)
             for r in self._search_report(work)),
        )
        first = sorted(loaded)[0]
        checks.append((f"requantize_reproduces_codes[{first}]", _requantize_reproduces(dq, loaded[first])))
        rows = (work / "ablate.csv").read_text().splitlines()[1:]
        checks += _monotone_checks(
            (signal, float(fraction), module, float(mse))
            for signal, fraction, module, mse, _ in (row.split(",") for row in rows)
            if module != "mean"
        )
        return checks

    def quality(self, dq, out: dict, work: Path) -> dict:
        report = self._search_report(work)
        loaded = dq.artifact_from_map(dq.load_container(work / "artifact.dqt"))
        evaluation = json.loads((work / "eval.json").read_text())
        return {
            "weights": sum(q.codes.size for q in loaded.values()),
            "artifact_bytes": (work / "artifact.dqt").stat().st_size,
            "e2e_output_mse": evaluation["end_to_end"]["output_mse_fp32_vs_quant"],
            "search_rtn_loss_ratio": sum(r["best_loss"] for r in report)
            / sum(r["rtn_loss"] for r in report),
        }


_BLOCK = (512, 512, 2048, 512)
_TINY_BLOCK = (128, 128, 256, 128)

WORKLOADS = {
    "full": {
        "block-1024rows": Block(_BLOCK, rows=1024, sweep=False),
        "block-128rows-sweep": Block(_BLOCK, rows=128, sweep=True),
        "toy-cli": ToyCli("64,256,64", steps=2000, snapshot_every=200, calib_rows=2048),
    },
    # a few seconds per workload, for the smoke test
    "tiny": {
        "block-1024rows": Block(_TINY_BLOCK, rows=256, sweep=False),
        "block-128rows-sweep": Block(_TINY_BLOCK, rows=32, sweep=True),
        "toy-cli": ToyCli("8,16,8", steps=100, snapshot_every=20, calib_rows=64, group_size=4),
    },
}
