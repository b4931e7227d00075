"""The golden run: pinned bytes and values of a small seeded input.

The checkpoint pair and the calibration rows come from numpy's
``Generator`` alone, with no toy ``forward``. Importance containers and
``rtn_quantize`` artifacts at a fixed channel scale use elementwise IEEE
arithmetic only, so their bytes are pinned (a digest per tensor, then the
file's). The search runs float64 ``pow`` and BLAS loss products, so its
alpha* is pinned exactly, on a seed whose losses are far apart, and its
losses to 1e-12 relative, as are ``eval``'s report of a searched artifact
with protected channels and ``ablate``'s MSEs, which add BLAS products and
the held-out forward pass (the two modules chain, 40 -> 24 -> 16). That
artifact's decoded weights are pinned too, through three float64 sums per
module to 1e-12 relative, not its bytes, until CI has run on more than one
libm. A change that moves a pinned value lists the old and the new value in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from deltaquant.container import TensorMap, load_container, save_container
from deltaquant.evaluate import ablate_signals, layer_report
from deltaquant.quant import QuantConfig, artifact_to_map, dequantize, rtn_quantize
from deltaquant.search import ModuleLoss, SearchConfig, quantize_model, search_scale
from deltaquant.signals import SIGNALS, MappingConfig, importance_all, importances_to_map
from deltaquant.toy import CalibrationSet

_SEED = 20261062
# module -> (out, in): at group size 16 each has a ragged last group of 8;
# 32 calibration rows score layer0 directly and layer1 through its Gram matrix
_SHAPES = {"layer0": (24, 40), "layer1": (16, 24)}
_ROWS = 32
_GROUP = 16


def _golden_input():
    """(pre, post, calibration rows) of the golden run."""
    rng = np.random.default_rng(_SEED)
    pre, post, rows = TensorMap(), TensorMap(), {}
    for module, shape in _SHAPES.items():
        weight = rng.standard_normal(shape, dtype=np.float32)
        update = rng.standard_normal(shape, dtype=np.float32) * np.float32(0.01)
        update[rng.random(shape) < 0.2] = 0.0  # exact zeros for both_ends_zero
        pre[f"{module}.weight"] = weight
        post[f"{module}.weight"] = weight + update
        rows[module] = rng.standard_normal((_ROWS, shape[1]), dtype=np.float32)
    return pre, post, rows


def _digests(tmap: TensorMap, path) -> dict[str, str]:
    """The first 16 hex digits of each tensor's sha256, and of the saved file's."""
    save_container(tmap, path)
    loaded = load_container(path)
    got = {
        name: hashlib.sha256(loaded[name].tobytes()).hexdigest()[:16] for name in loaded.names()
    }
    got["file"] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return got


def _assert_digests(got: dict[str, str], want: dict[str, str], what: str) -> None:
    """Compare tensor by tensor, then the file, naming the first that differs."""
    assert sorted(got) == sorted(want), f"{what}: tensors {sorted(got)}, pinned {sorted(want)}"
    for name in [*sorted(set(want) - {"file"}), "file"]:
        module, _, field = name.partition(".")
        where = f"module {module!r} field {field!r}" if field else "the container file"
        assert got[name] == want[name], f"{what}: {where} is {got[name]}, pinned {want[name]}"


_IMPORTANCE = {
    "magnitude": {
        "layer0.importance": "84cbc9f1eaf3ddb9",
        "layer1.importance": "c9bbf2602f978ea3",
        "file": "171b839822bc476a",
    },
    "both_ends_zero": {
        "layer0.importance": "89beb52d4dbfbd96",
        "layer1.importance": "908c6f8615d45cea",
        "file": "eb34b8b9944577f4",
    },
}

_ARTIFACT = {
    3: {
        "layer0.channel_scale": "89fec6c29b8aee37",
        "layer0.codes": "92fa878da8bee607",
        "layer0.protected": "e54687782546d043",
        "layer0.protected_values": "3c03c90db99eac19",
        "layer0.scales": "92d3521cd3ad11c9",
        "layer0.zeros": "6543ba9d27bab459",
        "file": "7b128ea0706f6bfa",
    },
    4: {
        "layer0.channel_scale": "89fec6c29b8aee37",
        "layer0.codes": "259d12c9e6a04d72",
        "layer0.protected": "e54687782546d043",
        "layer0.protected_values": "3c03c90db99eac19",
        "layer0.scales": "ec5f1e34a38c81a9",
        "layer0.zeros": "c9bbd1f72b817407",
        "file": "e300959c50708a0e",
    },
}

# module -> (alpha*, rtn_loss, best_loss) of the default search at 3 bits;
# the second-best loss is 4% above the best on layer0 and 6% on layer1
_SEARCH = {
    "layer0": (0.10526315789473684, 0.8363084852349082, 0.7565985889468778),
    "layer1": (0.15789473684210525, 0.6180483329514495, 0.5642973872443132),
}

# eval.json of the default search's artifact at 3 bits with protect_fraction
# 0.1 (4 protected channels on layer0, 2 on layer1)
_EVAL = {
    "layer0": {
        "rtn_mse": 0.8363084852349082,
        "searched_mse": 0.7565985889468778,
        "protected_mse": 0.6686701541260843,
    },
    "layer1": {
        "rtn_mse": 0.6180483329514495,
        "searched_mse": 0.5642973872443132,
        "protected_mse": 0.5211260033543483,
    },
    "end_to_end": {
        "output_mse_fp32_vs_quant": 17.100636547639244,
        "relative_frobenius": 0.1994299673693692,
    },
}

# module -> (sum, sum of squares, sum weighted by the 1-based row-major index)
# of the float64 decoded weight of that artifact; one ulp of one decoded value
# moves the weighted sum by more than 1e-12 relative
_DECODED = {
    "layer0": (-23.722861418500543, 921.2894164101806, -12504.097848370671),
    "layer1": (-1.7160903625190258, 433.558304520404, 1042.8002082183957),
}

# (signal, fraction) -> (layer0 mse, layer1 mse, mean_mse, end_to_end_mse) of
# ablate at 3 bits, in row order
_ABLATE = {
    ("magnitude", 0.0): (
        0.020003625871770125, 0.020570398751946998, 0.02028701231185856, 21.285252495690976
    ),
    ("magnitude", 0.1): (
        0.01777840912248736, 0.018855229286361328, 0.018316819204424344, 20.17859296588422
    ),
    ("magnitude", 0.5): (
        0.009761487748870985, 0.009821155690449581, 0.009791321719660283, 11.223344613941041
    ),
    ("both_ends", 0.0): (
        0.020003625871770125, 0.020570398751946998, 0.02028701231185856, 21.285252495690976
    ),
    ("both_ends", 0.1): (
        0.01756894545830766, 0.01913470521384844, 0.01835182533607805, 18.575959642345723
    ),
    ("both_ends", 0.5): (
        0.010009946447582765, 0.010940198658054795, 0.010475072552818779, 9.767673511260492
    ),
    ("both_ends_zero", 0.0): (
        0.020003625871770125, 0.020570398751946998, 0.02028701231185856, 21.285252495690976
    ),
    ("both_ends_zero", 0.1): (
        0.01756894545830766, 0.01913470521384844, 0.01835182533607805, 18.575959642345723
    ),
    ("both_ends_zero", 0.5): (
        0.01019890947508808, 0.010732211292397917, 0.010465560383742998, 10.057616869112344
    ),
    ("mid", 0.0): (
        0.020003625871770125, 0.020570398751946998, 0.02028701231185856, 21.285252495690976
    ),
    ("mid", 0.1): (
        0.018055648554073423, 0.018596417012259402, 0.018326032783166413, 19.94020646499714
    ),
    ("mid", 0.5): (
        0.009993679424187364, 0.009630200093892203, 0.009811939759039785, 10.567357238815024
    ),
    ("activation_sq", 0.0): (
        0.020003625871770125, 0.020570398751946998, 0.02028701231185856, 21.285252495690976
    ),
    ("activation_sq", 0.1): (
        0.01841341659868247, 0.018955203161888947, 0.01868430988028571, 18.530908410850678
    ),
    ("activation_sq", 0.5): (
        0.011071785503119245, 0.010034379679956634, 0.010553082591537939, 9.841893678287528
    ),
}


def _assert_close(got: float, want: float, where: str) -> None:
    assert got == pytest.approx(want, rel=1e-12, abs=0.0), f"{where} is {got!r}, pinned {want!r}"


@pytest.mark.parametrize("signal", sorted(_IMPORTANCE))
def test_importance_container_bytes(tmp_path, signal):
    pre, post, _ = _golden_input()
    cfg = MappingConfig(signal=signal)
    tmap = importances_to_map(importance_all(pre, post, cfg), cfg)
    _assert_digests(_digests(tmap, tmp_path / "imp.dqt"), _IMPORTANCE[signal], signal)


@pytest.mark.parametrize("bits", sorted(_ARTIFACT))
def test_fixed_scale_artifact_bytes(tmp_path, bits):
    _, post, _ = _golden_input()
    weight = post["layer0.weight"]
    rng = np.random.default_rng(_SEED + 1)
    scale = rng.uniform(0.5, 2.0, weight.shape[1]).astype(np.float32)
    protected = np.zeros(weight.shape[1], dtype=bool)
    protected[[3, 17, 38]] = True  # one in the ragged last group
    q = rtn_quantize(
        weight, QuantConfig(bits=bits, group_size=_GROUP), channel_scale=scale,
        protected=protected,
    )
    tmap = artifact_to_map({"layer0": q})
    _assert_digests(_digests(tmap, tmp_path / "art.dqt"), _ARTIFACT[bits], f"{bits}-bit artifact")


def test_search_alpha_and_losses():
    pre, post, rows = _golden_input()
    cfg = MappingConfig()
    scores = importance_all(pre, post, cfg)
    qcfg = QuantConfig(bits=3, group_size=_GROUP)
    assert sorted(scores) == sorted(_SEARCH)
    for module, (alpha, rtn_loss, best_loss) in _SEARCH.items():
        loss = ModuleLoss(post[f"{module}.weight"], rows[module], module)
        result = search_scale(loss, scores[module], SearchConfig(), qcfg)
        assert result.alpha_star == alpha, (
            f"module {module!r} field 'alpha_star' is {result.alpha_star!r}, pinned {alpha!r}"
        )
        for field, want in (("rtn_loss", rtn_loss), ("best_loss", best_loss)):
            _assert_close(getattr(result, field), want, f"module {module!r} field {field!r}")


def _searched_artifact():
    """The golden checkpoint, its calibration rows and the default search's
    artifact at 3 bits with protect_fraction 0.1."""
    pre, post, rows = _golden_input()
    calib = CalibrationSet(inputs=rows)
    qcfg = QuantConfig(bits=3, group_size=_GROUP, protect_fraction=0.1)
    artifact, _ = quantize_model(
        post, importance_all(pre, post, MappingConfig()), calib, SearchConfig(), qcfg
    )
    return post, calib, artifact


def test_searched_artifact_decodes():
    _, _, artifact = _searched_artifact()
    assert sorted(artifact) == sorted(_DECODED)
    for module, want in _DECODED.items():
        recon = dequantize(artifact[module]).astype(np.float64)
        index = np.arange(1, recon.size + 1).reshape(recon.shape)
        got = (recon.sum(), (recon * recon).sum(), (recon * index).sum())
        for field, value, pinned in zip(("sum", "sum of squares", "weighted sum"), got, want):
            _assert_close(float(value), pinned, f"decoded module {module!r} {field}")


def test_eval_report():
    post, calib, artifact = _searched_artifact()
    report = layer_report(post, artifact, calib)
    got = {**report.per_module, "end_to_end": report.end_to_end}
    assert sorted(got) == sorted(_EVAL)
    for module, fields in _EVAL.items():
        assert sorted(got[module]) == sorted(fields), f"eval module {module!r}: fields"
        for field, want in fields.items():
            _assert_close(got[module][field], want, f"eval module {module!r} field {field!r}")


def test_ablation_mses():
    pre, post, rows = _golden_input()
    signals = [MappingConfig(signal=name) for name in SIGNALS]
    got = ablate_signals(pre, post, CalibrationSet(inputs=rows), signals, [0.0, 0.1, 0.5],
                         QuantConfig(bits=3, group_size=_GROUP))
    assert [(r.signal, r.fraction) for r in got] == list(_ABLATE)
    for row, (layer0, layer1, mean, end_to_end) in zip(got, _ABLATE.values()):
        where = f"ablate row ({row.signal!r}, {row.fraction!r})"
        assert sorted(row.per_module) == ["layer0", "layer1"], f"{where}: modules"
        _assert_close(row.per_module["layer0"], layer0, f"{where} module 'layer0' field 'mse'")
        _assert_close(row.per_module["layer1"], layer1, f"{where} module 'layer1' field 'mse'")
        _assert_close(row.mean_mse, mean, f"{where} module 'mean' field 'mse'")
        _assert_close(row.end_to_end_mse, end_to_end, f"{where} field 'end_to_end_mse'")
