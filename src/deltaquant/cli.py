"""Command-line surface: train-toy, importance, quantize, eval, ablate, curve.

Option values resolve with the precedence command-line flag > config file >
built-in default. The config file is flat ``section.key = value`` text (see
``--config``); unknown keys are rejected. An option whose key names a config
dataclass field takes its default, type and text form from that field.
Every value is parsed, and every config built, before a command reads a
file. All subcommands are deterministic for fixed inputs and seeds. Exit
codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from .container import config_from_text, config_to_text, load_container, save_container
from .evaluate import ablation_csv, ablate_signals, curve_csv, layer_report, pseudo_ft_curve
from .quant import QuantConfig, artifact_from_map, artifact_to_map
from .search import SearchConfig, quantize_model, report_lines
from .signals import MappingConfig, importance_all, importances_from_map, importances_to_map
from .toy import CalibrationSet, TrainConfig, forward, init_model, train


class UsageError(Exception):
    """Bad flags or config; maps to exit code 2."""


# the config dataclass whose fields the keys of each config-file section name
_CONFIGS = {
    "map": MappingConfig, "quant": QuantConfig, "search": SearchConfig, "train": TrainConfig
}


@dataclass(frozen=True)
class Opt:
    flag: str
    key: str | None  # config-file key, None for --config itself
    help: str
    # text default and parser of an option that no config field backs
    default: str | None = None
    convert: Callable[[str], object] | None = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    @cached_property
    def field(self) -> tuple[type, str] | None:
        """The config class and field name behind this option, if any."""
        section, _, name = (self.key or "").partition(".")
        cls = _CONFIGS.get(section)
        return (cls, name) if cls and name in {f.name for f in fields(cls)} else None


def _comma_list(item: Callable[[str], object], least: int = 1) -> Callable[[str], list]:
    """Parser of a comma-separated list of at least ``least`` items."""

    def parse(text: str) -> list:
        items = [item(part.strip()) for part in text.split(",") if part.strip()]
        if len(items) < least:
            raise ValueError(f"needs at least {least} comma-separated value(s)")
        return items

    return parse


def _int_at_least(least: int) -> Callable[[str], int]:
    """Parser of an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be >= {least}")
        return value

    return parse


def _fraction(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError("fractions must be in [0, 1]")
    return value


_COMMON = [Opt("--config", None, "flat key=value config file")]

# ablate names its signals with --signals and protects per --fractions row
_SIGNAL = Opt("--signal", "map.signal",
              "importance signal: magnitude, both-ends, both-ends-zero, mid, activation-sq")
_PROTECT = Opt("--protect", "quant.protect_fraction", "fraction of channels kept in float32")

_MAP_OPTS = [
    Opt("--y-min", "map.y_min", "mapping output at the median update"),
    Opt("--y-max", "map.y_max", "mapping output at both ends"),
    Opt("--zero-epsilon", "map.zero_epsilon", "updates at or below this count as zero"),
    Opt("--slices", "map.slices", "divides each channel's zero-update count"),
    Opt("--multiply-activation", "map.multiply_activation",
        "multiply importance by mean absolute activation (needs --calib)"),
]

_QUANT_OPTS = [
    Opt("--bits", "quant.bits", "code width (3 or 4)"),
    Opt("--group-size", "quant.group_size", "input channels per quantization group"),
]

_SEARCH_OPTS = [
    Opt("--grid-points", "search.grid_points", "alpha candidates on the grid"),
    Opt("--alpha-lo", "search.alpha_lo", "lower end of the alpha grid"),
    Opt("--alpha-hi", "search.alpha_hi", "upper end of the alpha grid"),
    Opt("--max-calib-rows", "search.max_calib_rows", "calibration rows used in the loss"),
]

_TRAIN_OPTS = [
    Opt("--dims", "train.dims", "comma-separated layer widths", "8,16,8",
        _comma_list(_int_at_least(1), 2)),
    Opt("--steps", "train.steps", "gradient-descent steps"),
    Opt("--lr", "train.learning_rate", "learning rate"),
    Opt("--batch-size", "train.batch_size", "rows per training batch"),
    Opt("--seed", "train.seed", "weight-initialization seed", "0", _int_at_least(0)),
    Opt("--data-seed", "train.data_seed", "synthetic-data and teacher seed"),
    Opt("--snapshot-every", "train.snapshot_every", "steps between checkpoints"),
    Opt("--calib-rows", "train.calib_rows", "rows in the captured calibration set", "256",
        _int_at_least(1)),
]


def _parse_config_file(path: str) -> dict[str, str]:
    known = {opt.key for _, _, opts in _COMMANDS.values() for opt in opts}
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
        if key not in known:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _resolve(ns: argparse.Namespace, opts: list[Opt]) -> argparse.Namespace:
    """Fill every option, then build every config as ``ns.<section>`` from its options.

    A value a config rejects is a usage error that echoes the given options, each by
    its flag when the command line gave it, else by its config-file key. Then the
    config file's keys of the other commands are parsed as the command that owns a key
    reads the file when given no flags, into a namespace that is dropped.
    """
    cfg = _parse_config_file(ns.config) if ns.config else {}
    others = {o.key: o for _, _, every in _COMMANDS.values() for o in every
              if o.key in cfg.keys() - {own.key for own in opts}}
    for space, group in ((ns, opts), (argparse.Namespace(), others.values())):
        named = {o.dest: o.key if getattr(space, o.dest, None) is None else o.flag
                 for o in group}
        for opt in group:
            raw = getattr(space, opt.dest, None)
            if raw is None:
                raw = cfg.get(opt.key, opt.default)
            if raw is None and opt.required:
                raise UsageError(f"missing required option {opt.flag}")
            if raw is not None and opt.convert:
                try:
                    raw = opt.convert(raw)
                except ValueError as exc:
                    raise UsageError(f"bad value for {named[opt.dest]}: {raw!r}: {exc}") from exc
            setattr(space, opt.dest, raw)
        for section, cls in _CONFIGS.items():
            given = [o for o in group if o.field and o.field[0] is cls
                     and getattr(space, o.dest) is not None]
            try:
                config = config_from_text(cls, {o.field[1]: getattr(space, o.dest) for o in given})
            except ValueError as exc:
                shown = " ".join(f"{named[o.dest]} {getattr(space, o.dest)}" for o in given)
                raise UsageError(f"{shown}: {exc}") from exc
            setattr(space, section, config)
    return ns


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; every parse returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="deltaquant",
        description="weight-update-driven post-training quantization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    configs = {cls: cls() for cls in _CONFIGS.values()}
    texts = {cls: config_to_text(cfg) for cls, cfg in configs.items()}
    for name, (_, description, opts) in _COMMANDS.items():
        # no abbreviations, so that ablate's unknown --signal cannot resolve to --signals
        p = sub.add_parser(name, help=description, description=description, allow_abbrev=False)
        for opt in opts:
            switch, default = False, opt.default
            if opt.field:
                cls, field = opt.field
                switch, default = isinstance(getattr(configs[cls], field), bool), texts[cls][field]
            text = opt.help if opt.required else f"{opt.help} (default: {default})"
            if switch:
                p.add_argument(opt.flag, dest=opt.dest, action="store_const", const="true",
                               default=None, help=text)
            else:
                p.add_argument(opt.flag, dest=opt.dest, default=None, metavar="V", help=text)
    return parser


def _check_out_dirs(outs: list[str | Path], reads: list[str | Path | None]) -> None:
    """Name the first output path without a directory, or whose file the command also
    reads or writes under another output, before the command reads its inputs."""
    read = {Path(p).resolve(): p for p in reads if p}
    written: dict[Path, Path] = {}
    for path in map(Path, outs):
        if not path.parent.is_dir():
            raise UsageError(f"cannot write {path}: no directory {path.parent}")
        if path.resolve() in read:
            raise UsageError(f"cannot write {path}: the command reads {read[path.resolve()]}")
        other = written.setdefault(path.resolve(), path)
        if other is not path:
            raise UsageError(f"cannot write {path}: the command also writes {other}")


def _load_calib(path: str) -> CalibrationSet:
    return CalibrationSet.from_tensor_map(load_container(path))


def cmd_train_toy(ns: argparse.Namespace) -> int:
    out_dir = Path(ns.out)
    paths = {step: out_dir / f"ckpt_step{step:06d}.dqt" for step in ns.train.snapshot_steps}
    calib_path = out_dir / "calib.dqt"
    # a file at --out, or at its nearest existing ancestor, would fail the mkdir below
    blocker = next(path for path in (out_dir, *out_dir.parents) if path.exists())
    if not blocker.is_dir():
        raise UsageError(f"cannot write snapshots under {blocker}: it is not a directory")
    if out_dir.exists():
        _check_out_dirs([*paths.values(), calib_path], [ns.config])
    # curve reads every snapshot in the directory, so one this run does not overwrite joins its run
    stale = sorted(set(out_dir.glob("ckpt_step*.dqt")) - set(paths.values()))
    if stale:
        raise UsageError(f"{stale[0]} is not a snapshot of this run: remove it or use another --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    model = init_model(ns.dims, seed=ns.seed)
    final, snapshots = train(model, ns.train)
    batch = np.random.default_rng((ns.train.data_seed, 101)).standard_normal(
        (ns.calib_rows, ns.dims[0]), dtype=np.float32
    )
    _, calib = forward(final, batch)
    for step, snap in snapshots:
        path = paths[step]
        save_container(snap, path)
        print(f"wrote {path}")
    meta = {"data_seed": str(ns.train.data_seed), "rows": str(ns.calib_rows)}
    save_container(calib.to_tensor_map(meta=meta), calib_path)
    print(f"wrote {calib_path}")
    return 0


def cmd_importance(ns: argparse.Namespace) -> int:
    if ns.map.needs_calib and not ns.calib:
        activation = ns.map.signal == "activation_sq"
        reader = f"signal {ns.map.signal!r}" if activation else "--multiply-activation"
        raise UsageError(f"{reader} requires --calib")
    _check_out_dirs([ns.out], [ns.config, ns.pre, ns.post, ns.calib])
    pre = load_container(ns.pre)
    post = load_container(ns.post)
    calib = _load_calib(ns.calib) if ns.calib else None
    scores = importance_all(pre, post, ns.map, calib)
    save_container(importances_to_map(scores, ns.map), ns.out)
    print(f"wrote {ns.out}")
    return 0


def cmd_quantize(ns: argparse.Namespace) -> int:
    report_path = Path(ns.report) if ns.report else Path(ns.out).with_suffix(".report.jsonl")
    # the artifact is written before the report: a missing directory fails before either
    _check_out_dirs([ns.out, report_path], [ns.config, ns.post, ns.importance, ns.calib])
    post = load_container(ns.post)
    imps = importances_from_map(load_container(ns.importance))
    calib = _load_calib(ns.calib)
    artifact, report = quantize_model(post, imps, calib, ns.search, ns.quant)
    save_container(artifact_to_map(artifact, config_to_text(ns.quant)), ns.out)
    report_path.write_text("\n".join(report_lines(report, ns.search, ns.quant)) + "\n")
    print(f"wrote {ns.out}")
    print(f"wrote {report_path}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    _check_out_dirs([ns.out], [ns.config, ns.post, ns.artifact, ns.calib])
    post = load_container(ns.post)
    artifact = artifact_from_map(load_container(ns.artifact))
    calib = _load_calib(ns.calib)
    report = layer_report(post, artifact, calib)
    Path(ns.out).write_text(report.to_json() + "\n")
    print(f"wrote {ns.out}")
    return 0


def cmd_ablate(ns: argparse.Namespace) -> int:
    _check_out_dirs([ns.out], [ns.config, ns.pre, ns.post, ns.calib])
    signals = [replace(ns.map, signal=name) for name in ns.signals]
    pre = load_container(ns.pre)
    post = load_container(ns.post)
    calib = _load_calib(ns.calib)
    rows = ablate_signals(pre, post, calib, signals, ns.fractions, ns.quant)
    Path(ns.out).write_text(ablation_csv(rows))
    print(f"wrote {ns.out}")
    return 0


def cmd_curve(ns: argparse.Namespace) -> int:
    run_dir = Path(ns.run)
    ckpts = {path: path.stem[len("ckpt_step"):] for path in sorted(run_dir.glob("ckpt_step*.dqt"))}
    calib_path = run_dir / "calib.dqt"
    _check_out_dirs([ns.out], [ns.config, *ckpts, calib_path])
    stray = [path for path, step in ckpts.items() if not step.isdecimal()]
    if stray:
        raise UsageError(f"{stray[0]} is not a snapshot: expected ckpt_step<N>.dqt")
    steps: dict[int, Path] = {}
    for path, step in ckpts.items():
        first = steps.setdefault(int(step), path)
        if first != path:
            raise UsageError(f"{first} and {path} are snapshots of the same step {int(step)}")
    if len(ckpts) < 2:
        raise UsageError(f"{run_dir} holds fewer than two ckpt_step*.dqt files")
    if not calib_path.exists():
        raise UsageError(f"{run_dir} is missing calib.dqt")
    snapshots = [(step, load_container(path)) for step, path in steps.items()]
    calib = _load_calib(calib_path)
    points, slope = pseudo_ft_curve(snapshots, calib, ns.map, ns.search, ns.quant)
    Path(ns.out).write_text(curve_csv(points, slope))
    print(f"wrote {ns.out}")
    return 0


# subcommand -> (handler, description, options)
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], str, list[Opt]]] = {
    "train-toy": (cmd_train_toy, "train a seeded toy MLP and write checkpoints plus calibration",
        _COMMON + _TRAIN_OPTS + [Opt("--out", "io.out", "output directory", required=True)],
    ),
    "importance": (cmd_importance, "turn a checkpoint pair into per-channel importance scores",
        _COMMON + [_SIGNAL] + _MAP_OPTS + [
            Opt("--pre", "io.pre", "pre-fine-tuned checkpoint (.dqt)", required=True),
            Opt("--post", "io.post", "post-fine-tuned checkpoint (.dqt)", required=True),
            Opt("--calib", "io.calib", "calibration container (.dqt)"),
            Opt("--out", "io.out", "importance container to write", required=True),
        ],
    ),
    "quantize": (cmd_quantize, "search channel scales and write a packed quantized artifact",
        _COMMON + _QUANT_OPTS + [_PROTECT] + _SEARCH_OPTS + [
            Opt("--post", "io.post", "checkpoint to quantize (.dqt)", required=True),
            Opt("--importance", "io.importance", "importance container", required=True),
            Opt("--calib", "io.calib", "calibration container", required=True),
            Opt("--out", "io.out", "quantized artifact to write", required=True),
            Opt("--report", "io.report", "search report (JSON lines); defaults next to --out"),
        ],
    ),
    "eval": (cmd_eval, "report reconstruction and end-to-end error of an artifact",
        _COMMON + [
            Opt("--post", "io.post", "float checkpoint (.dqt)", required=True),
            Opt("--artifact", "io.artifact", "quantized artifact (.dqt)", required=True),
            Opt("--calib", "io.calib", "calibration container", required=True),
            Opt("--out", "io.out", "JSON report to write", required=True),
        ],
    ),
    "ablate": (cmd_ablate, "protection-signal sweep with plain RTN plus channel protection",
        _COMMON + _MAP_OPTS + _QUANT_OPTS + [
            Opt("--pre", "io.pre", "pre-fine-tuned checkpoint", required=True),
            Opt("--post", "io.post", "post-fine-tuned checkpoint", required=True),
            Opt("--calib", "io.calib", "calibration container", required=True),
            Opt("--signals", "ablate.signals", "comma-separated protection signals",
                "magnitude,mid,both-ends,both-ends-zero,activation-sq",
                _comma_list(lambda name: MappingConfig(signal=name).signal)),
            Opt("--fractions", "ablate.fractions", "comma-separated protect fractions in [0, 1]",
                "0.05,0.3", _comma_list(_fraction)),
            Opt("--out", "io.out", "ablation CSV to write", required=True),
        ],
    ),
    "curve": (cmd_curve, "quantization loss versus pseudo-fine-tuning step",
        _COMMON + [_SIGNAL] + _MAP_OPTS + _QUANT_OPTS + _SEARCH_OPTS + [
            Opt("--run", "io.run", "train-toy output directory", required=True),
            Opt("--out", "io.out", "curve CSV to write", required=True),
        ],
    ),
}


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        handler, _, opts = _COMMANDS[ns.command]
        return handler(_resolve(ns, opts))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
