"""Every file boundary as one matrix: (file tensor x defect x reading command).

A cell spoils one tensor of ``layer0`` (or the whole module) in a copy of one toy
run and runs one command that reads it. It exits 1 naming the module or tensor
once, with its ``MESSAGES`` fragment, no numpy warning and no output; or it is
``ACCEPTED``, with the reason it exits 0, and writes.
"""

import re
import shutil

import numpy as np
import pytest

from cli_runner import run_cli
from deltaquant import cli
from deltaquant.container import load_container, save_container

FLT_MAX = float(np.finfo(np.float32).max)

# file -> its path in the run, and the tensors of a module it holds
FILES = {
    "pre": ("run/ckpt_step000000.dqt", ("weight",)),
    "post": ("run/ckpt_step000200.dqt", ("weight", "bias")),
    "calib": ("run/calib.dqt", ("calib_inputs",)),
    "importance": ("imp.dqt", ("importance",)),
    "artifact": ("art.dqt", "scales channel_scale protected_values codes zeros protected".split()),
}
_ALL = {tensor for _, tensors in FILES.values() for tensor in tensors}
_FLOATS = _ALL - {"codes", "zeros", "protected"}  # those three are packed uint8 streams

# command -> {file it reads: the config key of the option that names it}; curve
# reads step 0, the final snapshot and calib.dqt from its --run directory
READERS = {
    "importance": {"pre": "io.pre", "post": "io.post", "calib": "io.calib"},
    "quantize": {"post": "io.post", "importance": "io.importance", "calib": "io.calib"},
    "eval": {"post": "io.post", "artifact": "io.artifact", "calib": "io.calib"},
    "ablate": {"pre": "io.pre", "post": "io.post", "calib": "io.calib"},
    "curve": {"pre": "io.run", "post": "io.run", "calib": "io.run"},
}
# the others take --group-size 4; ablate's default signals read the calibration rows
_OPTIONS = {"importance": ["--multiply-activation"], "eval": []}


def _put(value, where=(0, 0)):
    """The defect that writes ``value`` at ``where``, cut to the tensor's rank."""
    def change(a):
        a = a.copy()
        a[where[: a.ndim]] = value
        return a
    return change


# defect -> {tensor it applies to: the tensor it makes of it}; a defect of the
# whole "module" changes the map: every layer0 tensor goes, or is copied
DEFECTS = {
    "nan": dict.fromkeys(_FLOATS, _put(np.nan)),
    "inf": dict.fromkeys(_FLOATS, _put(np.inf)),
    # a finite value whose use overflows float32
    "overflow": {"weight": _put([FLT_MAX, -FLT_MAX], (0, slice(0, 2))),  # in one group
                 "calib_inputs": _put(3e38, (slice(None), 0)),
                 "scales": _put(FLT_MAX), "protected_values": _put(2.75e38)},
    "zero": dict.fromkeys({"importance", "channel_scale"}, _put(0.0)),
    "negative": dict.fromkeys({"importance", "channel_scale"}, _put(-1.0)),
    "row-short": dict.fromkeys(_ALL, lambda a: a[:-1]),
    "column-short": dict.fromkeys({"weight", "calib_inputs", "scales", "protected_values"},
                                  lambda a: a[:, :-1]),
    "no-rows": dict.fromkeys(_ALL, lambda a: a[:0]),
    "rank": dict.fromkeys(_ALL, lambda a: a.reshape(-1) if a.ndim == 2 else a[None]),
    "dtype": dict.fromkeys(_ALL, lambda a: a.astype(np.float32) if a.dtype == np.uint8
                           else np.ones(a.shape, np.uint8)),
    "missing": {"module": lambda t: [t.entries.pop(n) for n in t.names() if n[:7] == "layer0."]},
    "extra": {"module": lambda t: [t.entries.setdefault("layer9" + n[6:], t[n])
                                   for n in t.names() if n[:7] == "layer0."]},
}

CELLS = [(file, t, d, command) for command, files in READERS.items() for file in files
         for t in (*FILES[file][1], "module") for d in DEFECTS if t in DEFECTS[d]]
IDS = ["-".join(cell) for cell in CELLS]

# cells that exit 0 by design: a regular expression over cell ids -> why
ACCEPTED = {
    r"calib-calib_inputs-row-short-.*": "any count of at least one calibration row is valid",
    r"calib-module-extra-.*": "commands read the checkpoint's modules; an extra one goes unread",
    r"post-weight-row-short-quantize": "quantize never chains layers; eval, which does, fails",
    r"post-bias-.*-quantize": "quantize reads no bias",
    r"post-bias-(nan|inf)-(importance|curve)": "they compare its shape and dtype, not its values",
    r"pre-weight-overflow-.*|post-weight-overflow-importance": "only its finite update is read",
    r"calib-calib_inputs-overflow-(quantize|eval|curve)": "3e38 squared is finite in float64",
    r"artifact-(codes|zeros|protected)-rank-eval": "packed streams have no rank",
}

# every other cell: a regular expression over cell ids -> its message fragment
# (with {tensor} filled in); the first match holds
MESSAGES = {
    r"post-weight-(nan|inf)-(quantize|eval|curve)": "weight 'layer0.weight' contains non-finite",
    r"post-bias-(nan|inf)-ablate|post-bias-.*-eval": "'layer0.bias' must hold 16 finite values",
    r"(pre|post)-weight-(nan|inf)-.*": "non-finite weight update in 'layer0.weight'",
    r"post-weight-dtype-(quantize|eval|curve)": "weight 'layer0.weight' is uint8, not float32",
    r"(pre|post)-\w+-dtype-.*": "dtype mismatch for 'layer0.{tensor}'",
    r"post-weight-overflow-quantize": "module 'layer0': weight times channel_scale",
    r"post-weight-overflow-.*": "module 'layer0': a group of the weight decodes beyond the",
    r"post-weight-row-short-eval": "artifact module 'layer0' is [16, 8], its checkpoint weight",
    r"calib-calib_inputs-(column-short|no-rows)-(importance|ablate)": "must be [n >= 1, 8]",
    r"(post|calib)-\w+-column-short-(quantize|eval|curve)": "must be [n, in_features]",
    r"post-weight-(no-rows|rank)-(quantize|eval|curve)": "it needs at least one row and one column",
    r"(pre|post)-\w+-(\w+-short|no-rows|rank)-.*": "shape mismatch for 'layer0.{tensor}'",
    r"(pre|post)-module-\w+-(importance|ablate)": "missing tensor",
    r"calib-calib_inputs-overflow-importance": "importance scores of module 'layer0' are not",
    r"calib-\w+-(nan|inf|overflow)-(importance|ablate)": "non-finite calibration statistic",
    r"calib-calib_inputs-(nan|inf)-.*": "calibration inputs for module 'layer0' contain non-finite",
    r"calib-calib_inputs-no-rows-.*": "need at least one calibration row for module 'layer0'",
    r"calib-calib_inputs-.*": "calibration inputs of module 'layer0' must be 2-D float32",
    r"calib-module-missing-.*": "calibration inputs for module 'layer0'",
    r"importance-importance-(nan|inf|dtype)-.*": "non-finite or non-float32 importance scores",
    r"importance-importance-(zero|negative)-.*": "non-positive importance scores for module",
    r"importance-importance-.*": "importance length must match in_features for module 'layer0'",
    r"artifact-(scales|protected_values)-(nan|inf)-.*": "scales and protected_values of module",
    r"artifact-channel_scale-(nan|inf|zero|negative)-.*": "channel_scale of module 'layer0' must be",
    r"artifact-scales-overflow-.*": "module 'layer0': dequantization produced non-finite values",
    r"artifact-protected_values-overflow-.*": "activations of module 'layer0' are not finite",
    r"artifact-(codes|zeros|protected)-dtype-.*": "of module 'layer0' is float32, not a packed",
    r"artifact-\w+-(rank|dtype)-.*": "{tensor} of module 'layer0' must be",
    r"artifact-protected_values-.*": "module 'layer0': protected_values must be [16, 2]",
    r"artifact-(codes|zeros|protected)-.*": "corrupt {tensor} of module 'layer0': length",
    r"artifact-scales-column-short-.*": "corrupt zeros of module 'layer0'",
    r"artifact-\w+-(row-short|no-rows)-.*": "corrupt codes of module 'layer0'",
    r".*-module-(missing|extra)-.*": "is missing from the",
}


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    base = tmp_path_factory.mktemp("boundary")
    pre, post, calib, imp, art = (base / path for path, _ in FILES.values())
    for args in (["train-toy", "--dims", "8,16,8", "--steps", "200", "--snapshot-every", "100",
                  "--out", base / "run"],
                 ["importance", "--pre", pre, "--post", post, "--out", imp],
                 ["quantize", "--post", post, "--importance", imp, "--calib", calib,
                  "--group-size", "4", "--protect", "0.25", "--out", art]):
        assert run_cli(*args).returncode == 0
    return base


@pytest.mark.parametrize("file,tensor,defect,command", CELLS, ids=IDS)
def test_cell(run, tmp_path, file, tensor, defect, command):
    base = tmp_path / "run"
    shutil.copytree(run, base)
    path, name = base / FILES[file][0], f"layer0.{tensor}"
    tmap = load_container(path)
    if tensor == "module":
        DEFECTS[defect][tensor](tmap)
    else:
        tmap[name] = np.ascontiguousarray(DEFECTS[defect][tensor](tmap[name]))
    save_container(tmap, path)
    before = sorted(base.rglob("*"))
    inputs = {key: base / ("run" if key == "io.run" else FILES[f][0])
              for f, key in READERS[command].items()}
    res = run_cli(command, *[x for key, p in inputs.items() for x in ("--" + key[3:], p)],
                  *_OPTIONS.get(command, ["--group-size", "4"]), "--out", base / "out")
    cell = "-".join((file, tensor, defect, command))
    if any(re.fullmatch(pattern, cell) for pattern in ACCEPTED):
        assert res.returncode == 0 and (base / "out").exists(), res.stderr
        return
    assert res.returncode == 1, res.stderr
    assert res.stderr.count("layer9" if defect == "extra" else "layer0") == 1, res.stderr
    fragment = next(m for pattern, m in MESSAGES.items() if re.fullmatch(pattern, cell))
    assert fragment.format(tensor=tensor) in res.stderr
    assert "Warning" not in res.stderr and "encountered" not in res.stderr
    assert sorted(base.rglob("*")) == before


def test_every_entry_names_a_cell():
    for pattern in [*ACCEPTED, *MESSAGES]:
        assert any(re.fullmatch(pattern, cell) for cell in IDS), pattern


def test_readers_are_every_file_option():
    """A new input option of a command fails here until the matrix reads its file."""
    for command, (_, _, opts) in cli._COMMANDS.items():
        keys = {o.key for o in opts if (o.key or "").startswith("io.")} - {"io.out", "io.report"}
        files = {(f, key) for key in keys
                 for f in (["pre", "post", "calib"] if key == "io.run" else [key[3:]])}
        assert set(READERS.get(command, {}).items()) == files, command
