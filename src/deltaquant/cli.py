"""Command-line surface: train-toy, importance, quantize, eval, ablate, curve.

Option values resolve with the precedence command-line flag > config file >
built-in default. The config file is flat ``section.key = value`` text (see
``--config``); unknown keys are rejected. All subcommands are deterministic
for fixed inputs and seeds. Exit codes: 0 success, 1 runtime error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .container import load_container, save_container
from .evaluate import ablation_csv, ablate_signals, curve_csv, layer_report, pseudo_ft_curve
from .quant import QuantConfig, artifact_from_map, artifact_to_map
from .search import SearchConfig, quantize_model, report_lines
from .signals import (
    SIGNALS,
    MappingConfig,
    importance_all,
    importances_from_map,
    importances_to_map,
)
from .toy import CalibrationSet, TrainConfig, forward, init_model, train


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


@dataclass(frozen=True)
class Opt:
    flag: str
    key: str | None  # config-file key, None for CLI-only options
    convert: type | None
    default: object
    help: str
    required: bool = False
    is_flag: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")


_COMMON = [
    Opt("--config", None, str, None, "flat key=value config file"),
]

_MAP_OPTS = [
    Opt(
        "--signal",
        "map.signal",
        str,
        "both-ends-zero",
        "importance signal: magnitude, both-ends, both-ends-zero, mid, activation-sq",
    ),
    Opt("--y-min", "map.y_min", float, 1.0, "mapping output at the median update"),
    Opt("--y-max", "map.y_max", float, 10.0, "mapping output at both ends"),
    Opt("--zero-epsilon", "map.zero_epsilon", float, 0.0, "updates at or below this count as zero"),
    Opt("--slices", "map.slices", int, 1, "row bands for averaged zero counting"),
    Opt(
        "--multiply-activation",
        "map.multiply_activation",
        None,
        False,
        "multiply importance by mean absolute activation (needs --calib)",
        is_flag=True,
    ),
]

_QUANT_OPTS = [
    Opt("--bits", "quant.bits", int, 3, "code width (3 or 4)"),
    Opt("--group-size", "quant.group_size", int, 128, "input channels per quantization group"),
    Opt("--protect", "quant.protect_fraction", float, 0.0, "fraction of channels kept in float32"),
]

_SEARCH_OPTS = [
    Opt("--grid-points", "search.grid_points", int, 20, "alpha candidates on the grid"),
    Opt("--alpha-lo", "search.alpha_lo", float, 0.0, "lower end of the alpha grid"),
    Opt("--alpha-hi", "search.alpha_hi", float, 1.0, "upper end of the alpha grid"),
    Opt("--max-calib-rows", "search.max_calib_rows", int, 512, "calibration rows used in the loss"),
]

_TRAIN_OPTS = [
    Opt("--dims", "train.dims", str, "8,16,8", "comma-separated layer widths"),
    Opt("--steps", "train.steps", int, 500, "gradient-descent steps"),
    Opt("--lr", "train.learning_rate", float, 0.05, "learning rate"),
    Opt("--batch-size", "train.batch_size", int, 32, "rows per training batch"),
    Opt("--seed", "train.seed", int, 0, "weight-initialization seed"),
    Opt("--data-seed", "train.data_seed", int, 1, "synthetic-data and teacher seed"),
    Opt("--snapshot-every", "train.snapshot_every", int, 100, "steps between checkpoints"),
    Opt("--calib-rows", "train.calib_rows", int, 256, "rows in the captured calibration set"),
]

_COMMANDS: dict[str, list[Opt]] = {
    "train-toy": _COMMON + _TRAIN_OPTS + [
        Opt("--out", "io.out", str, None, "output directory", required=True),
    ],
    "importance": _COMMON + _MAP_OPTS + [
        Opt("--pre", "io.pre", str, None, "pre-fine-tuned checkpoint (.dqt)", required=True),
        Opt("--post", "io.post", str, None, "post-fine-tuned checkpoint (.dqt)", required=True),
        Opt("--calib", "io.calib", str, None, "calibration container (.dqt)"),
        Opt("--out", "io.out", str, None, "importance container to write", required=True),
    ],
    "quantize": _COMMON + _QUANT_OPTS + _SEARCH_OPTS + [
        Opt("--post", "io.post", str, None, "checkpoint to quantize (.dqt)", required=True),
        Opt("--importance", "io.importance", str, None, "importance container", required=True),
        Opt("--calib", "io.calib", str, None, "calibration container", required=True),
        Opt("--out", "io.out", str, None, "quantized artifact to write", required=True),
        Opt("--report", "io.report", str, None, "search report (JSON lines); defaults next to --out"),
    ],
    "eval": _COMMON + [
        Opt("--post", "io.post", str, None, "float checkpoint (.dqt)", required=True),
        Opt("--artifact", "io.artifact", str, None, "quantized artifact (.dqt)", required=True),
        Opt("--calib", "io.calib", str, None, "calibration container", required=True),
        Opt("--out", "io.out", str, None, "JSON report to write", required=True),
    ],
    "ablate": _COMMON + _MAP_OPTS + _QUANT_OPTS + [
        Opt("--pre", "io.pre", str, None, "pre-fine-tuned checkpoint", required=True),
        Opt("--post", "io.post", str, None, "post-fine-tuned checkpoint", required=True),
        Opt("--calib", "io.calib", str, None, "calibration container", required=True),
        Opt(
            "--signals",
            "ablate.signals",
            str,
            "magnitude,mid,both-ends,both-ends-zero,activation-sq",
            "comma-separated protection signals",
        ),
        Opt("--fractions", "ablate.fractions", str, "0.05,0.3", "comma-separated protect fractions"),
        Opt("--out", "io.out", str, None, "ablation CSV to write", required=True),
    ],
    "curve": _COMMON + _MAP_OPTS + _QUANT_OPTS + _SEARCH_OPTS + [
        Opt("--run", "io.run", str, None, "train-toy output directory", required=True),
        Opt("--out", "io.out", str, None, "curve CSV to write", required=True),
    ],
}

_KNOWN_KEYS = {opt.key for opts in _COMMANDS.values() for opt in opts if opt.key}


def _parse_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _coerce_flag(raw: object) -> bool:
    if isinstance(raw, bool):
        return raw
    text = str(raw).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected a boolean, got {raw!r}")


def _resolve(ns: argparse.Namespace, opts: list[Opt]) -> argparse.Namespace:
    cfg = _parse_config_file(ns.config) if getattr(ns, "config", None) else {}
    for opt in opts:
        raw = getattr(ns, opt.dest, None)
        if raw is None and opt.key and opt.key in cfg:
            raw = cfg[opt.key]
        if raw is None:
            if opt.required:
                raise UsageError(f"missing required option {opt.flag}")
            setattr(ns, opt.dest, opt.default)
            continue
        if opt.is_flag:
            setattr(ns, opt.dest, _coerce_flag(raw))
        else:
            try:
                setattr(ns, opt.dest, opt.convert(raw))
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value for {opt.flag}: {raw!r}") from exc
    return ns


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaquant",
        description="weight-update-driven post-training quantization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "train-toy": "train a seeded toy MLP and write checkpoints plus calibration",
        "importance": "turn a checkpoint pair into per-channel importance scores",
        "quantize": "search channel scales and write a packed quantized artifact",
        "eval": "report reconstruction and end-to-end error of an artifact",
        "ablate": "protection-signal sweep with plain RTN plus channel protection",
        "curve": "quantization loss versus pseudo-fine-tuning step",
    }
    for name, opts in _COMMANDS.items():
        p = sub.add_parser(name, help=descriptions[name], description=descriptions[name])
        for opt in opts:
            text = opt.help if opt.required else f"{opt.help} (default: {opt.default})"
            if opt.is_flag:
                p.add_argument(opt.flag, dest=opt.dest, action="store_const", const=True,
                               default=None, help=text)
            else:
                p.add_argument(opt.flag, dest=opt.dest, default=None, metavar="V", help=text)
    return parser


def _signal_name(cli_name: str) -> str:
    name = cli_name.strip().replace("-", "_")
    if name in SIGNALS:
        return name
    raise UsageError(f"unknown signal {cli_name!r}")


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --dims value {text!r}") from exc
    if len(dims) < 2:
        raise UsageError("--dims needs at least two comma-separated sizes")
    return dims


def _config(cls, ns: argparse.Namespace, opts: list[Opt], **overrides):
    """Build ``cls`` from the options whose config keys name its fields.

    A value the config rejects is a usage error that echoes those options.
    """
    names = {field.name for field in fields(cls)}
    used = [opt for opt in opts if opt.key.partition(".")[2] in names]
    values = {opt.key.partition(".")[2]: getattr(ns, opt.dest) for opt in used}
    try:
        return cls(**{**values, **overrides})
    except ValueError as exc:
        given = " ".join(f"{opt.flag} {getattr(ns, opt.dest)}" for opt in used)
        raise UsageError(f"{given}: {exc}") from exc


def _mapping_config(ns: argparse.Namespace) -> MappingConfig:
    return _config(MappingConfig, ns, _MAP_OPTS, signal=_signal_name(ns.signal))


def _load_calib(path: str) -> CalibrationSet:
    return CalibrationSet.from_tensor_map(load_container(path))


def cmd_train_toy(ns: argparse.Namespace) -> int:
    dims = _parse_dims(ns.dims)
    cfg = _config(TrainConfig, ns, _TRAIN_OPTS)
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = init_model(dims, seed=ns.seed)
    final, snapshots = train(model, cfg)
    for step, snap in snapshots:
        path = out_dir / f"ckpt_step{step:06d}.dqt"
        save_container(snap, path)
        print(f"wrote {path}")
    batch = np.random.default_rng((ns.data_seed, 101)).standard_normal(
        (ns.calib_rows, dims[0]), dtype=np.float32
    )
    _, calib = forward(final, batch)
    calib_path = out_dir / "calib.dqt"
    save_container(
        calib.to_tensor_map(meta={"data_seed": str(ns.data_seed), "rows": str(ns.calib_rows)}),
        calib_path,
    )
    print(f"wrote {calib_path}")
    return 0


def cmd_importance(ns: argparse.Namespace) -> int:
    cfg = _mapping_config(ns)
    if cfg.needs_calib and not ns.calib:
        raise UsageError(f"signal {ns.signal!r} requires --calib")
    pre = load_container(ns.pre)
    post = load_container(ns.post)
    calib = _load_calib(ns.calib) if ns.calib else None
    imps = importance_all(pre, post, cfg, calib)
    save_container(importances_to_map(imps), ns.out)
    print(f"wrote {ns.out}")
    return 0


def cmd_quantize(ns: argparse.Namespace) -> int:
    qcfg = _config(QuantConfig, ns, _QUANT_OPTS)
    scfg = _config(SearchConfig, ns, _SEARCH_OPTS)
    post = load_container(ns.post)
    imps = importances_from_map(load_container(ns.importance))
    calib = _load_calib(ns.calib)
    artifact, report = quantize_model(post, imps, calib, scfg, qcfg)
    meta = {"protect_fraction": repr(qcfg.protect_fraction)}
    save_container(artifact_to_map(artifact, meta), ns.out)
    report_path = Path(ns.report) if ns.report else Path(ns.out).with_suffix(".report.jsonl")
    report_path.write_text("\n".join(report_lines(report, scfg, qcfg)) + "\n")
    print(f"wrote {ns.out}")
    print(f"wrote {report_path}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    post = load_container(ns.post)
    artifact = artifact_from_map(load_container(ns.artifact))
    calib = _load_calib(ns.calib)
    report = layer_report(post, artifact, calib)
    Path(ns.out).write_text(report.to_json() + "\n")
    print(f"wrote {ns.out}")
    return 0


def cmd_ablate(ns: argparse.Namespace) -> int:
    names = [part for part in ns.signals.split(",") if part.strip()]
    if not names:
        raise UsageError("--signals must name at least one signal")
    try:
        fractions = [float(part) for part in ns.fractions.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --fractions value {ns.fractions!r}") from exc
    if not fractions:
        raise UsageError("--fractions must name at least one fraction")
    base = _mapping_config(ns)
    signals = [replace(base, signal=_signal_name(name)) for name in names]
    qcfg = _config(QuantConfig, ns, _QUANT_OPTS)
    pre = load_container(ns.pre)
    post = load_container(ns.post)
    calib = _load_calib(ns.calib)
    rows = ablate_signals(pre, post, calib, signals, fractions, qcfg)
    Path(ns.out).write_text(ablation_csv(rows))
    print(f"wrote {ns.out}")
    return 0


def cmd_curve(ns: argparse.Namespace) -> int:
    run_dir = Path(ns.run)
    ckpts = sorted(run_dir.glob("ckpt_step*.dqt"))
    if len(ckpts) < 2:
        raise UsageError(f"{run_dir} holds fewer than two ckpt_step*.dqt files")
    calib_path = run_dir / "calib.dqt"
    if not calib_path.exists():
        raise UsageError(f"{run_dir} is missing calib.dqt")
    snapshots = []
    for path in ckpts:
        step = int(path.stem[len("ckpt_step"):])
        snapshots.append((step, load_container(path)))
    calib = _load_calib(calib_path)
    final_ref = snapshots[-1][1]
    points, slope = pseudo_ft_curve(
        snapshots, final_ref, calib, _mapping_config(ns),
        _config(SearchConfig, ns, _SEARCH_OPTS), _config(QuantConfig, ns, _QUANT_OPTS),
    )
    Path(ns.out).write_text(curve_csv(points, slope))
    print(f"wrote {ns.out}")
    return 0


_DISPATCH = {
    "train-toy": cmd_train_toy,
    "importance": cmd_importance,
    "quantize": cmd_quantize,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "curve": cmd_curve,
}


def main(argv: list[str] | None = None) -> int:
    try:
        parser = _build_parser()
        ns = parser.parse_args(argv)
        ns = _resolve(ns, _COMMANDS[ns.command])
        return _DISPATCH[ns.command](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
