"""Every usage rule of the CLI as one matrix: (command x option x bad value).

The cells derive from ``cli._COMMANDS``. A value cell gives one option, as
``--flag=value``, a value that its parser (``_int_at_least``, ``_fraction``,
``_comma_list``) or its config field rejects; a config cell gives one through
``--config``, and an ``other-config`` cell one for a key of another command;
an ``omitted`` cell leaves a required option out; a path cell puts an output
where the command may not write it; a rule cell (``RULES``) breaks a usage rule
that spans options. Each cell exits 2 with ``usage error:``, names its flag
exactly once (value and ``omitted`` cells) or its key (a value from the config
file, in config and ``other-config`` cells), path or rule, and reads no
container, trains nothing and writes nothing.
"""

from inspect import getclosurevars
from typing import Callable, NamedTuple

import pytest

from cli_runner import run_cli
from deltaquant import cli

# the file or directory each path option names, relative to the cell's directory; no
# cell reads them, so they hold placeholder bytes. The config file is named as a
# file that train-toy writes, so that its --out can be the directory holding it
PATHS = {
    "--config": "cfg/calib.dqt",
    "--pre": "run/ckpt_step000000.dqt",
    "--post": "run/ckpt_step000100.dqt",
    "--calib": "run/calib.dqt",
    "--importance": "imp.dqt",
    "--artifact": "art.dqt",
    "--run": "run",
    "--out": "out",
    "--report": "report.jsonl",
}
OUTPUTS = ("--out", "--report")
RUN = ("ckpt_step000000.dqt", "ckpt_step000100.dqt", "calib.dqt")  # what curve reads in --run

# config field -> a value just below its range and one just above it, at the other
# fields' defaults (y_min 1 < y_max 10, alpha_lo 0 < alpha_hi 1); None where it is open
OUTSIDE = {
    "bits": ("2", "5"), "group_size": ("0", None), "protect_fraction": ("-0.1", "1.1"),
    "y_min": ("0", "10"), "y_max": ("1", None), "zero_epsilon": ("-1e-3", None),
    "slices": ("0", None), "grid_points": ("1", None), "alpha_lo": (None, "1"),
    "alpha_hi": ("0", None), "max_calib_rows": ("0", None), "steps": ("0", None),
    "learning_rate": ("0", "1e39"),  # 1e39 is inf in float32
    "batch_size": ("0", None), "data_seed": ("-1", None), "snapshot_every": ("0", None),
}
# value type -> the values it rejects whatever the range; the one text value is a signal
OF_TYPE = {
    int: {"not-a-number": "x", "not-an-integer": "1.5"},
    float: {"not-a-number": "x", "nan": "nan", "inf": "inf", "neg-inf": "-inf"},
    str: {"unknown": "sideways"},
    bool: {"not-a-switch": "maybe"},
}
# parser of one value -> its value type and out-of-range values, from its bound
PARSERS = {
    "_int_at_least": lambda bound: (int, (str(bound["least"] - 1), None)),
    "_fraction": lambda bound: (float, ("-0.1", "1.1")),
    "<lambda>": lambda bound: (str, (None, None)),  # ablate's signal names
}


def _value_type(opt, parse=None):
    """The type and out-of-range values of one value of ``opt``, or of what ``parse`` reads."""
    parse = parse or opt.convert
    if parse is None:
        cls, name = opt.field
        kind = type(getattr(cls(), name))
        return kind, OUTSIDE.get(name, (None, None))
    bound = getclosurevars(parse).nonlocals
    if "item" in bound:  # a list: the type of its items
        return _value_type(opt, bound["item"])
    return PARSERS[parse.__qualname__.partition(".")[0]](bound)


def _rejected(kind, outside) -> dict[str, str]:
    return {k: v for k, v in zip(("below", "above"), outside) if v is not None} | OF_TYPE[kind]


def bad_values(opt) -> dict[str, str]:
    """Label -> a value of ``opt`` that its parser or config field rejects."""
    bad = _rejected(*_value_type(opt))
    bound = getclosurevars(opt.convert).nonlocals if opt.convert else {}
    if "item" not in bound:
        return bad
    # a comma-separated list: too short, or one bad item after the default's
    items = opt.default.split(",")
    short = {"too-few": ",".join(items[: bound["least"] - 1])} if bound["least"] > 1 else {}
    return {"empty": "", **short} | {f"item-{k}": f"{opt.default},{v}" for k, v in bad.items()}


# config key -> the option that reads it, in whichever command has it
OWNERS = {opt.key: opt for _, _, opts in cli._COMMANDS.values() for opt in opts
          if opt.key and not opt.key.startswith("io.")}


def _write(path, text="not a container"):
    def edit(base):
        (base / path).parent.mkdir(parents=True, exist_ok=True)
        (base / path).write_text(text)
    return edit


def _remove(path):
    return lambda base: (base / path).unlink()


class Cell(NamedTuple):
    command: str
    flags: tuple[str, ...]  # the options the cell breaks
    case: str
    args: dict = {}  # flag -> text, True for a bare switch, None to leave the option out
    edit: Callable | None = None  # what the cell changes in its directory
    names: str | None = None  # what stderr names, {base} the directory; None: flags[0] once

    @property
    def id(self):
        return f"{self.command}-{self.flags[0].lstrip('-')}-{self.case}"


def _cells():
    cfg = PATHS["--config"]
    for command, (_, _, opts) in cli._COMMANDS.items():
        for opt in opts:
            if opt.required:
                yield Cell(command, (opt.flag,), "omitted", {opt.flag: None})
            if opt.key is None or opt.key.startswith("io."):  # --config or a path
                continue
            values = bad_values(opt)
            if _value_type(opt)[0] is not bool:  # a switch takes no value
                yield from (Cell(command, (opt.flag,), label, {opt.flag: value})
                            for label, value in values.items())
            line = f"{opt.key} = {next(iter(values.values()))}\n"
            yield Cell(command, (opt.flag,), "config", edit=_write(cfg, line), names=opt.key)
        # every command checks the keys of the others, though it does not use them
        for key, opt in OWNERS.items():
            if key not in {own.key for own in opts}:
                line = f"{key} = {next(iter(bad_values(opt).values()))}\n"
                yield Cell(command, (opt.flag,), "other-config", edit=_write(cfg, line), names=key)
        yield Cell(command, ("--config",), "missing-file", edit=_remove(cfg), names="{base}/" + cfg)
        yield Cell(command, ("--config",), "unknown-key", edit=_write(cfg, "map.sideways = 1\n"),
                   names="{base}/" + cfg + ":1: unknown config key 'map.sideways'")
        yield Cell(command, ("--config",), "no-equals", edit=_write(cfg, "train.steps 120\n"),
                   names="{base}/" + cfg + ":1: expected 'key = value'")
        # an output: under a file, in a missing directory, or on a file that the command
        # reads or also writes; train-toy creates a missing --out directory
        flags = [opt.flag for opt in opts if opt.flag in PATHS]
        outs = [flag for flag in flags if flag in OUTPUTS]
        places = {"under-file": ((), "afile/x/y", "afile")}
        if command != "train-toy":
            places["in-missing-dir"] = ((), "nodir/x", "nodir")
        for flag in flags:
            files = [f"run/{name}" for name in RUN] if flag == "--run" else [PATHS[flag]]
            for path in files:
                case = f"on-run-{path[4:-4]}" if flag == "--run" else f"on-{flag[2:]}"
                places[case] = ((flag,), path, path)
        for out in outs:
            for case, (others, target, named) in places.items():
                if others != (out,):
                    yield Cell(command, (out, *others), case, {out: "{base}/" + target},
                               names="{base}/" + named)


# the usage rules that span options
RULES = [
    Cell("importance", ("--signal", "--calib"), "without-calib",
         {"--signal": "activation-sq", "--calib": None},
         names="usage error: signal 'activation_sq' requires --calib\n"),
    Cell("importance", ("--multiply-activation", "--calib"), "without-calib",
         {"--multiply-activation": True, "--calib": None},
         names="usage error: --multiply-activation requires --calib\n"),
    Cell("train-toy", ("--out", "--config"), "holds-config", {"--out": "{base}/cfg"},
         names="cannot write {base}/cfg/calib.dqt: the command reads"),
    # curve would read the other run's step 600 with this run's steps 0 to 500
    Cell("train-toy", ("--out",), "other-run", edit=_write("out/ckpt_step000600.dqt"),
         names="{base}/out/ckpt_step000600.dqt is not a snapshot of this run"),
    Cell("curve", ("--run",), "stray-name", edit=_write("run/ckpt_stepbak.dqt"),
         names="{base}/run/ckpt_stepbak.dqt is not a snapshot"),
    Cell("curve", ("--run",), "one-step-twice", edit=_write("run/ckpt_step0.dqt"),
         names="{base}/run/ckpt_step0.dqt and {base}/run/ckpt_step000000.dqt are snapshots "
               "of the same step 0"),
    Cell("curve", ("--run",), "one-snapshot", edit=_remove("run/ckpt_step000100.dqt"),
         names="{base}/run holds fewer than two ckpt_step*.dqt files"),
    Cell("curve", ("--run",), "no-calib", edit=_remove("run/calib.dqt"),
         names="{base}/run is missing calib.dqt"),
]

CELLS = [*_cells(), *RULES]


def argv(cell, base):
    """The cell's command line: every path option at its ``PATHS`` entry, then its changes."""
    opts = cli._COMMANDS[cell.command][2]
    given = {o.flag: "{base}/" + PATHS[o.flag] for o in opts if o.flag in PATHS} | cell.args
    return [cell.command] + [flag if value is True else f"{flag}={value.format(base=base)}"
                             for flag, value in given.items() if value is not None]


def _tree(base):
    """Every path below ``base``, with a file's bytes."""
    return {path: path.is_file() and path.read_bytes() for path in base.rglob("*")}


@pytest.fixture
def cell_dir(tmp_path, monkeypatch):
    """A directory holding every ``PATHS`` input, an empty config and a plain file
    ``afile``, with ``cli.load_container`` and ``cli.train`` failing when called."""
    for path in (*(f"run/{name}" for name in RUN), PATHS["--importance"],
                 PATHS["--artifact"], "afile"):
        _write(path)(tmp_path)
    _write(PATHS["--config"], "# no settings\n")(tmp_path)
    started = []

    def refuse(*args):
        started.append(args)
        raise RuntimeError("reached a read or a training run")

    monkeypatch.setattr(cli, "load_container", refuse)
    monkeypatch.setattr(cli, "train", refuse)
    return tmp_path, started


@pytest.mark.parametrize("cell", CELLS, ids=[cell.id for cell in CELLS])
def test_cell(cell_dir, cell):
    base, started = cell_dir
    if cell.edit:
        cell.edit(base)
    before = _tree(base)
    res = run_cli(*argv(cell, base))
    assert res.returncode == 2 and res.stderr.startswith("usage error: "), res.stderr
    if cell.names is None:
        assert res.stderr.count(cell.flags[0]) == 1, res.stderr
    else:
        assert cell.names.format(base=base) in res.stderr, res.stderr
    assert started == [] and _tree(base) == before


@pytest.mark.parametrize("command", cli._COMMANDS)
def test_unchanged_arguments_reach_a_read(cell_dir, command):
    """A cell's exit 2 comes from what it changes: without a change, the command runs."""
    base, started = cell_dir
    res = run_cli(*argv(Cell(command, (), "unchanged"), base))
    assert res.returncode == 1 and len(started) == 1, res.stderr


def test_every_option_has_a_cell():
    """A new option fails here until the tables give it a cell, and a new numeric
    config field until ``OUTSIDE`` gives its range."""
    covered = {(cell.command, flag) for cell in CELLS for flag in cell.flags}
    every = {(command, o.flag) for command, (_, _, opts) in cli._COMMANDS.items() for o in opts}
    assert every - covered == set()
    numeric = {o.field[1] for _, _, opts in cli._COMMANDS.values() for o in opts
               if o.field and _value_type(o)[0] in (int, float)}
    assert OUTSIDE.keys() == numeric
