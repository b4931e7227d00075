"""Eval reports, ablation table, pseudo-fine-tuning curve."""

import collections
import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ablate_oracle import ablate_oracle
from deltaquant import evaluate, signals
from deltaquant.container import TensorMap
from deltaquant.evaluate import (
    ablation_csv,
    ablate_signals,
    curve_csv,
    layer_report,
    pseudo_ft_curve,
)
from deltaquant.quant import (
    QuantConfig,
    dequantize,
    protection_order,
    rtn_quantize,
)
from deltaquant.search import (
    ModuleLoss,
    SearchConfig,
    quant_loss,
    quantize_model,
    search_scale,
)
from deltaquant.signals import SIGNALS, DegenerateDeltasError, MappingConfig, importance_all
from deltaquant.toy import (
    CalibrationSet,
    TrainConfig,
    checkpoint_map,
    forward,
    init_model,
    model_from_map,
    train,
)
from quant_oracle import select_protected

QCFG = QuantConfig(bits=3, group_size=4)
# the held-out batch of every end-to-end number, as ``eval.json`` records it
HELDOUT = {"heldout_seed": 1013, "heldout_rows": 64}


@pytest.fixture(scope="module")
def toy_run():
    model = init_model([8, 16, 8], seed=1)
    _, snaps = train(model, TrainConfig(steps=300, data_seed=2, snapshot_every=100))
    pre, post = snaps[0][1], snaps[-1][1]
    batch = np.random.default_rng(33).standard_normal((64, 8), dtype=np.float32)
    _, calib = forward(model_from_map(post), batch)
    return {"pre": pre, "post": post, "calib": calib, "snaps": snaps}


@pytest.fixture(scope="module")
def searched_artifact(toy_run):
    imps = importance_all(toy_run["pre"], toy_run["post"], MappingConfig(), toy_run["calib"])
    artifact, report = quantize_model(
        toy_run["post"], imps, toy_run["calib"], SearchConfig(), QCFG
    )
    return artifact, report, imps


def test_model_shares_the_checkpoint_arrays_and_no_stage_writes_them(toy_run, searched_artifact):
    pre, post, calib = toy_run["pre"], copy.deepcopy(toy_run["post"]), toy_run["calib"]
    before = {name: post[name].tobytes() for name in post.names()}
    model = model_from_map(post)
    for layer in model.layers:
        assert np.shares_memory(layer.weight, post[f"{layer.name}.weight"])
        assert np.shares_memory(layer.bias, post[f"{layer.name}.bias"])
    layer_report(post, searched_artifact[0], calib)
    ablate_signals(pre, post, calib, [MappingConfig()], [0.0, 0.5], QCFG)
    trained, _ = train(model, TrainConfig(steps=20, data_seed=3))
    assert not np.array_equal(trained.layers[0].weight, post["layer0.weight"])
    assert {name: post[name].tobytes() for name in post.names()} == before


def test_every_stage_runs_the_modules_in_chain_order():
    # by length, then name: layer2 comes before layer10, as the layers chain
    model = init_model([6] + [8, 6] * 6, seed=4)
    pre = checkpoint_map(model, 0)
    post = checkpoint_map(model, 1)
    rng = np.random.default_rng(9)
    for layer in model.layers:
        post[f"{layer.name}.weight"] = layer.weight + rng.normal(
            0.0, 0.01, layer.weight.shape).astype(np.float32)
    _, calib = forward(model_from_map(post), rng.standard_normal((16, 6), dtype=np.float32))
    imps = importance_all(pre, post, MappingConfig(), calib)
    artifact, report = quantize_model(post, imps, calib, SearchConfig(grid_points=3), QCFG)
    ev = layer_report(post, artifact, calib)
    (row,) = ablate_signals(pre, post, calib, [MappingConfig()], [0.25], QCFG)
    chain = [f"layer{i}" for i in range(12)]
    assert [result.module for result in report] == chain
    assert list(ev.per_module) == chain
    assert list(row.per_module) == chain


class TestLayerReport:
    def test_searched_never_worse_and_crosscheck(self, toy_run, searched_artifact):
        # eval on the search's own rows repeats the search's losses bit for bit, on
        # both loss paths: the toy run's 64 rows reach every module's inputs (Gram
        # form), and the wide run's layer1 has 256 inputs for 100 rows (direct form)
        model = init_model([64, 256, 64], seed=5)
        _, snaps = train(model, TrainConfig(steps=100, data_seed=6, snapshot_every=100))
        rows = np.random.default_rng(7).standard_normal((100, 64), dtype=np.float32)
        _, calib = forward(model_from_map(snaps[-1][1]), rows)
        wide = {"pre": snaps[0][1], "post": snaps[-1][1], "calib": calib}
        imps = importance_all(wide["pre"], wide["post"], MappingConfig(), calib)
        runs = [(toy_run, searched_artifact[:2]),
                (wide, quantize_model(wide["post"], imps, calib, SearchConfig(), QCFG))]
        for run, (artifact, report) in runs:
            ev = layer_report(run["post"], artifact, run["calib"])
            by_module = {r.module: r for r in report}
            for module, stats in ev.per_module.items():
                assert stats["searched_mse"] <= stats["rtn_mse"]
                # same formula through two code paths
                assert stats["rtn_mse"] == by_module[module].rtn_loss
                assert stats["searched_mse"] == by_module[module].best_loss

    def test_searched_mse_decodes_protected_artifact(self, toy_run, searched_artifact):
        # searched_mse strips the protection instead of re-quantizing, and
        # protected_mse updates its loss product in place of a second decode
        # and a second product, so it sums in another order than a full
        # product of the decoded artifact: equal up to float64 rounding
        artifact, _, imps = searched_artifact
        ev = layer_report(toy_run["post"], artifact, toy_run["calib"])
        for stats in ev.per_module.values():
            # nothing protected: no update, the searched loss itself
            assert stats["protected_mse"] == stats["searched_mse"]
        qcfg = QuantConfig(bits=3, group_size=4, protect_fraction=0.25)
        artifact, _ = quantize_model(toy_run["post"], imps, toy_run["calib"], SearchConfig(), qcfg)
        ev = layer_report(toy_run["post"], artifact, toy_run["calib"])
        for module, stats in ev.per_module.items():
            q = artifact[module]
            assert q.protected.any()
            weight = toy_run["post"][f"{module}.weight"]
            x = toy_run["calib"].inputs[module]
            assert stats["searched_mse"] == quant_loss(weight, x, q.channel_scale, QCFG)
            full = ModuleLoss(weight, x)(dequantize(q))
            assert abs(stats["protected_mse"] - full) <= 1e-12 * max(full, stats["searched_mse"])
        # stored columns that are not the checkpoint's (another checkpoint of
        # the same shapes) are scored as stored, not as exact
        moved = {m: dataclasses.replace(q, protected_values=q.protected_values + 0.5)
                 for m, q in artifact.items()}
        ev = layer_report(toy_run["post"], moved, toy_run["calib"])
        for module, stats in ev.per_module.items():
            weight = toy_run["post"][f"{module}.weight"]
            loss = ModuleLoss(weight, toy_run["calib"].inputs[module])
            full = loss(dequantize(moved[module]))
            assert abs(stats["protected_mse"] - full) <= 1e-12 * max(full, stats["searched_mse"])
            assert stats["protected_mse"] > 0.0

    def test_two_loss_products_per_module(self, toy_run, searched_artifact, monkeypatch):
        # plain RTN through error_loss; the searched and protected losses
        # from one product in protected_losses
        counts = collections.Counter()
        for name in ("error_loss", "protected_losses"):
            def counted(self, *args, _fn=getattr(ModuleLoss, name), _name=name):
                counts[_name] += 1
                return _fn(self, *args)

            monkeypatch.setattr(ModuleLoss, name, counted)
        artifact, _, _ = searched_artifact
        layer_report(toy_run["post"], artifact, toy_run["calib"])
        assert counts == {"error_loss": len(artifact), "protected_losses": len(artifact)}

    def test_non_finite_calibration_rejected(self, toy_run, searched_artifact):
        artifact, _, _ = searched_artifact
        calib = toy_run["calib"]
        bad = CalibrationSet(inputs={**calib.inputs, "layer0": calib.inputs["layer0"].copy()})
        bad.inputs["layer0"][5, 1] = np.nan
        with pytest.raises(ValueError, match="layer0.*non-finite"):
            layer_report(toy_run["post"], artifact, bad)

    def test_full_protection_zeroes_every_mse(self, toy_run, searched_artifact):
        _, _, imps = searched_artifact
        qcfg = QuantConfig(bits=3, group_size=4, protect_fraction=1.0)
        artifact, _ = quantize_model(toy_run["post"], imps, toy_run["calib"], SearchConfig(), qcfg)
        ev = layer_report(toy_run["post"], artifact, toy_run["calib"])
        for stats in ev.per_module.values():
            assert stats["protected_mse"] <= 1e-10
        assert ev.end_to_end["output_mse_fp32_vs_quant"] <= 1e-10

    def test_4bit_beats_3bit_per_module(self, toy_run, searched_artifact):
        _, _, imps = searched_artifact
        results = {}
        for bits in (3, 4):
            artifact, _ = quantize_model(
                toy_run["post"], imps, toy_run["calib"], SearchConfig(),
                QuantConfig(bits=bits, group_size=4),
            )
            results[bits] = layer_report(toy_run["post"], artifact, toy_run["calib"])
        for module in results[3].per_module:
            for key in ("rtn_mse", "searched_mse", "protected_mse"):
                assert results[4].per_module[module][key] <= results[3].per_module[module][key]

    def test_report_json_deterministic(self, toy_run, searched_artifact):
        artifact, _, _ = searched_artifact
        j1 = layer_report(toy_run["post"], artifact, toy_run["calib"]).to_json()
        j2 = layer_report(toy_run["post"], artifact, toy_run["calib"]).to_json()
        assert j1 == j2
        parsed = json.loads(j1)
        assert set(parsed) == {"per_module", "end_to_end", "config"}

    def test_non_finite_value_is_not_written_as_json(self):
        report = evaluate.EvalReport({}, {"output_mse_fp32_vs_quant": math.nan}, {})
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json()

    def test_missing_calibration_rejected(self, toy_run, searched_artifact):
        artifact, _, _ = searched_artifact
        from deltaquant.toy import CalibrationSet

        with pytest.raises(ValueError, match="calibration"):
            layer_report(toy_run["post"], artifact, CalibrationSet())

    def test_module_coverage_gap_rejected(self, toy_run, searched_artifact):
        # each error names the module and the side that lacks it
        artifact, _, _ = searched_artifact
        partial = {k: v for k, v in artifact.items() if k != "layer1"}
        with pytest.raises(ValueError, match="module 'layer1' is missing from the artifact"):
            layer_report(toy_run["post"], partial, toy_run["calib"])
        extra = {**artifact, "layer9": artifact["layer1"]}
        with pytest.raises(ValueError, match="module 'layer9' is missing from the checkpoint"):
            layer_report(toy_run["post"], extra, toy_run["calib"])

    def test_artifact_of_other_shapes_names_the_module(self, toy_run):
        # an 8-32-8 model's artifact against the 8-16-8 checkpoint
        wide = init_model([8, 32, 8], seed=1)
        artifact = {layer.name: rtn_quantize(layer.weight, QCFG) for layer in wide.layers}
        with pytest.raises(ValueError, match="module 'layer0' is \\[32, 8\\]"):
            layer_report(toy_run["post"], artifact, toy_run["calib"])

    def test_empty_artifact_rejected(self, toy_run):
        with pytest.raises(ValueError, match="empty"):
            layer_report(toy_run["post"], {}, toy_run["calib"])

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_checkpoint_weight_names_the_tensor(self, toy_run, searched_artifact, bad):
        artifact, _, _ = searched_artifact
        post = copy.deepcopy(toy_run["post"])
        post["layer0.weight"][2, 3] = bad
        with pytest.raises(ValueError, match="'layer0.weight' contains non-finite values"):
            layer_report(post, artifact, toy_run["calib"])

    def test_overflowing_heldout_forward_names_the_module(self, toy_run, searched_artifact):
        # finite weights whose float32 held-out activations overflow raise a
        # ValueError naming the module, not numpy's overflow warning (an
        # error under the test suite's warning filter)
        artifact, _, _ = searched_artifact
        post = copy.deepcopy(toy_run["post"])
        post["layer1.weight"][3] = 3e38
        with pytest.raises(ValueError, match="module 'layer1' are not finite with the checkpoint"):
            layer_report(post, artifact, toy_run["calib"])
        q = artifact["layer0"]
        protected = np.zeros_like(q.protected)
        protected[0] = True
        big = {**artifact, "layer0": dataclasses.replace(
            q, protected=protected, protected_values=np.full((q.shape[0], 1), 3e38, np.float32))}
        with pytest.raises(ValueError, match="module 'layer0' are not finite with the reconstructed"):
            layer_report(toy_run["post"], big, toy_run["calib"])


class TestAblation:
    SIGNALS = [
        MappingConfig(signal="magnitude"),
        MappingConfig(signal="mid"),
        MappingConfig(signal="both_ends"),
        MappingConfig(signal="both_ends_zero"),
        MappingConfig(signal="activation_sq"),
    ]

    def test_five_signals_two_fractions_ten_rows(self, toy_run):
        rows = ablate_signals(
            toy_run["pre"], toy_run["post"], toy_run["calib"],
            self.SIGNALS, [0.05, 0.3], QCFG,
        )
        assert len(rows) == 10
        assert [r.signal for r in rows[:2]] == ["magnitude", "magnitude"]
        assert [r.fraction for r in rows[:2]] == [0.05, 0.3]
        for row in rows:
            assert math.isfinite(row.mean_mse)
            assert math.isfinite(row.end_to_end_mse)

    def test_zero_fraction_rows_identical_across_signals(self, toy_run):
        rows = ablate_signals(
            toy_run["pre"], toy_run["post"], toy_run["calib"],
            self.SIGNALS[:3], [0.0], QCFG,
        )
        baseline = rows[0]
        for row in rows[1:]:
            assert row.per_module == baseline.per_module
            assert row.end_to_end_mse == baseline.end_to_end_mse

    def test_protection_monotone_per_module(self, toy_run):
        fractions = [0.0, 0.05, 0.3, 1.0]
        rows = ablate_signals(
            toy_run["pre"], toy_run["post"], toy_run["calib"],
            [MappingConfig()], fractions, QCFG,
        )
        for module in rows[0].per_module:
            series = [row.per_module[module] for row in rows]
            for lo, hi in zip(series[1:], series[:-1]):
                assert lo <= hi + 1e-12
        assert all(v == 0.0 for v in rows[-1].per_module.values())

    def test_empty_signals_rejected(self, toy_run):
        with pytest.raises(ValueError):
            ablate_signals(toy_run["pre"], toy_run["post"], toy_run["calib"], [], [0.05], QCFG)

    @pytest.mark.parametrize(
        "signals, fractions, message",
        [
            ([], [0.05], "at least one signal"),
            ([MappingConfig()], [0.05, 1.5], "1.5"),
            ([MappingConfig()], [-0.25], "-0.25"),
            ([MappingConfig()], [math.nan], "nan"),
        ],
    )
    def test_bad_request_rejected_before_any_work(
        self, toy_run, monkeypatch, signals, fractions, message
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("per-module work started before the request was checked")

        monkeypatch.setattr(evaluate, "compute_delta", no_work)
        with pytest.raises(ValueError, match=message):
            ablate_signals(
                toy_run["pre"], toy_run["post"], toy_run["calib"], signals, fractions, QCFG
            )

    def test_csv_layout_and_determinism(self, toy_run):
        rows = ablate_signals(
            toy_run["pre"], toy_run["post"], toy_run["calib"],
            self.SIGNALS[:2], [0.05], QCFG,
        )
        text = ablation_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "signal,fraction,module,mse,end_to_end_mse"
        # per row: one line per module plus a mean line
        assert len(lines) == 1 + len(rows) * (len(rows[0].per_module) + 1)
        rows2 = ablate_signals(
            toy_run["pre"], toy_run["post"], toy_run["calib"],
            self.SIGNALS[:2], [0.05], QCFG,
        )
        assert ablation_csv(rows2) == text


class TestSweepProperties:
    """The nested-prefix invariants the sweep is built on, over random inputs."""

    @settings(max_examples=60, deadline=None)
    @given(
        scores=st.lists(st.integers(0, 4).map(float), min_size=1, max_size=40),
        fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    )
    def test_masks_are_nested_prefixes_of_the_order(self, scores, fractions):
        order = protection_order(np.array(scores))
        assert sorted(order.tolist()) == list(range(len(scores)))
        prev = np.zeros(len(scores), dtype=bool)
        for fraction in sorted(fractions):
            mask = select_protected(np.array(scores), fraction)
            n = int(mask.sum())
            assert n == round(fraction * len(scores))
            assert mask[order[:n]].all()
            assert not (prev & ~mask).any()
            prev = mask

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 12), min_size=2, max_size=4),
        group_size=st.integers(1, 8),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
        signals=st.lists(st.sampled_from(SIGNALS), min_size=1, max_size=3),
        fractions=st.lists(
            st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(0.0, 1.0),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_in_input_order_and_mse_non_increasing(
        self, dims, group_size, zero_fraction, signals, fractions, seed
    ):
        rng = np.random.default_rng(seed)
        pre, post = _random_pair(rng, dims, zero_fraction)
        batch = rng.standard_normal((6, dims[0])).astype(np.float32)
        _, calib = forward(model_from_map(post), batch)
        cfgs = [MappingConfig(signal=sig) for sig in signals]
        qcfg = QuantConfig(bits=3, group_size=group_size)
        try:
            rows = ablate_signals(pre, post, calib, cfgs, fractions, qcfg)
        except DegenerateDeltasError:
            return
        assert [(r.signal, r.fraction) for r in rows] == [
            (cfg.signal, f) for cfg in cfgs for f in fractions
        ]
        # every row is built on its own: a one-row sweep gives its bits, mse included
        pairs = [(cfg, f) for cfg in cfgs for f in fractions]
        for row, (cfg, f) in zip(rows, pairs):
            assert row == ablate_signals(pre, post, calib, [cfg], [f], qcfg)[0]
        for s in range(len(cfgs)):
            by_fraction = sorted(rows[s * len(fractions):(s + 1) * len(fractions)],
                                 key=lambda r: r.fraction)
            for lo, hi in zip(by_fraction, by_fraction[1:]):
                # exact: no tolerance
                assert all(hi.per_module[m] <= lo.per_module[m] for m in lo.per_module)
                assert hi.mean_mse <= lo.mean_mse


def _random_pair(rng, dims, zero_fraction):
    """Chained pre/post checkpoints whose updates sit on a coarse grid, some exactly zero."""
    pre, post = TensorMap(), TensorMap()
    for i, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
        weight = rng.standard_normal((n_out, n_in)).astype(np.float32)
        update = np.round(rng.exponential(0.05, weight.shape) * 40) / 40
        update[rng.random(weight.shape) < zero_fraction] = 0.0
        update *= rng.choice([-1.0, 1.0], weight.shape)
        bias = rng.standard_normal(n_out).astype(np.float32)
        pre[f"layer{i}.weight"], pre[f"layer{i}.bias"] = weight, bias
        post[f"layer{i}.weight"] = (weight + update).astype(np.float32)
        post[f"layer{i}.bias"] = bias
    return pre, post


def _assert_csv_matches_oracle(got: str, want: str) -> None:
    """Every field byte-equal except ``mse``, which may differ by 1e-12 relative.

    ``ablate_signals`` adds per-column error sums where the oracle takes one
    mean over the whole error map, so the two sums round differently in the
    last bits; an exact 0 must stay 0.
    """
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert got_lines[0] == want_lines[0] and len(got_lines) == len(want_lines)
    for got_line, want_line in zip(got_lines[1:], want_lines[1:]):
        *got_key, got_mse, got_e2e = got_line.split(",")
        *want_key, want_mse, want_e2e = want_line.split(",")
        assert (got_key, got_e2e) == (want_key, want_e2e)
        assert math.isclose(float(got_mse), float(want_mse), rel_tol=1e-12, abs_tol=0.0), (
            got_line, want_line,
        )


class TestAblationOracle:
    """The shared-work sweep against the row-by-row reference in ``ablate_oracle``."""

    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 12), min_size=2, max_size=4),
        group_size=st.integers(1, 8),
        bits=st.sampled_from([3, 4]),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
        sweep=st.lists(
            st.tuples(st.sampled_from(SIGNALS), st.sampled_from([0.0, 0.025, 0.05, 0.1])),
            min_size=1,
            max_size=5,
        ),
        inner=st.lists(st.floats(0.0, 1.0), max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_csv_matches_row_by_row_oracle(
        self, dims, group_size, bits, zero_fraction, sweep, inner, seed
    ):
        rng = np.random.default_rng(seed)
        pre, post = _random_pair(rng, dims, zero_fraction)
        batch = rng.standard_normal((6, dims[0])).astype(np.float32)
        _, calib = forward(model_from_map(post), batch)
        cfgs = [MappingConfig(signal=sig, zero_epsilon=eps) for sig, eps in sweep]
        fractions = [0.0, *inner, 1.0]
        qcfg = QuantConfig(bits=bits, group_size=group_size)
        try:
            want = ablation_csv(ablate_oracle(pre, post, calib, cfgs, fractions, qcfg, **HELDOUT))
        except DegenerateDeltasError:
            with pytest.raises(DegenerateDeltasError):
                ablate_signals(pre, post, calib, cfgs, fractions, qcfg)
            return
        got = ablation_csv(ablate_signals(pre, post, calib, cfgs, fractions, qcfg))
        _assert_csv_matches_oracle(got, want)

    def test_toy_run_matches_oracle(self, toy_run):
        cfgs = [MappingConfig(signal=sig) for sig in SIGNALS]
        args = (toy_run["pre"], toy_run["post"], toy_run["calib"], cfgs, [0.0, 0.05, 0.3, 1.0], QCFG)
        _assert_csv_matches_oracle(
            ablation_csv(ablate_signals(*args)), ablation_csv(ablate_oracle(*args, **HELDOUT))
        )

    @pytest.mark.parametrize("signal", SIGNALS)
    def test_every_signal_raises_on_degenerate_deltas(self, toy_run, signal):
        # pseudo_ft_curve turns this error into a NaN point
        with pytest.raises(DegenerateDeltasError):
            ablate_signals(
                toy_run["post"], toy_run["post"], toy_run["calib"],
                [MappingConfig(signal=signal)], [0.1], QCFG,
            )

    def test_sweep_shares_per_checkpoint_work(self, toy_run, monkeypatch):
        counts = collections.Counter()

        def count(namespace, name):
            fn = getattr(namespace, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(namespace, name, wrapper)

        for namespace in (signals, evaluate):
            count(namespace, "compute_delta")
            count(namespace, "global_delta_stats")
        count(evaluate, "rtn_quantize")
        count(evaluate, "dequantize")
        # one sort per (signal, module), whatever the number of fractions
        count(evaluate, "protection_order")
        epsilons = [0.0, 1e-4, 0.0, 1e-4, 1e-3]
        cfgs = [MappingConfig(signal=sig, zero_epsilon=e) for sig, e in zip(SIGNALS, epsilons)]
        rows = ablate_signals(
            toy_run["pre"], toy_run["post"], toy_run["calib"],
            cfgs, [0.0, 0.05, 0.1, 0.3, 1.0], QCFG,
        )
        assert len(rows) == 25
        modules = len(toy_run["calib"].inputs)
        assert counts == {
            "compute_delta": 1,
            "global_delta_stats": len(set(epsilons)),
            "rtn_quantize": modules,
            "dequantize": modules,
            "protection_order": len(cfgs) * modules,
        }


class TestCurve:
    def test_degenerate_step_yields_nan_point(self, toy_run):
        snaps = toy_run["snaps"]
        doctored = [snaps[0], (1, snaps[0][1]), snaps[-1]]
        points, slope = pseudo_ft_curve(
            doctored, toy_run["calib"], MappingConfig(), SearchConfig(), QCFG
        )
        assert math.isnan(points[0][1])
        assert math.isfinite(points[1][1])

    def test_full_run_curve_and_slope(self, toy_run):
        points, slope = pseudo_ft_curve(
            toy_run["snaps"], toy_run["calib"], MappingConfig(), SearchConfig(), QCFG
        )
        assert [s for s, _ in points] == [100, 200, 300]
        assert all(math.isfinite(l) for _, l in points)
        assert math.isfinite(slope)

    def test_quantizes_the_highest_step_in_any_order(self, toy_run):
        snaps, calib = toy_run["snaps"], toy_run["calib"]
        args = (calib, MappingConfig(), SearchConfig(), QCFG)
        points, slope = pseudo_ft_curve(snaps[::-1], *args)
        assert (points, slope) == pseudo_ft_curve(snaps, *args)
        imps = importance_all(snaps[0][1], snaps[1][1], MappingConfig(), calib)
        _, report = quantize_model(snaps[-1][1], imps, calib, SearchConfig(), QCFG)
        assert points[0] == (snaps[1][0], float(np.mean([r.best_loss for r in report])))

    def test_requires_step_zero(self, toy_run):
        with pytest.raises(ValueError):
            pseudo_ft_curve(
                toy_run["snaps"][1:], toy_run["calib"], MappingConfig(), SearchConfig(), QCFG
            )

    @staticmethod
    def _run(snapshots):
        model = init_model([8, 16, 8], seed=1)
        _, snaps = train(model, TrainConfig(steps=10 * (snapshots - 1), snapshot_every=10))
        batch = np.random.default_rng(33).standard_normal((64, 8), dtype=np.float32)
        _, calib = forward(model_from_map(snaps[-1][1]), batch)
        return snaps, calib

    @pytest.mark.parametrize("snapshots", [3, 11])
    def test_one_loss_and_one_rtn_score_per_module(self, monkeypatch, snapshots):
        snaps, calib = self._run(snapshots)
        assert len(snaps) == snapshots
        calls = collections.Counter()
        init, one, many = ModuleLoss.__init__, ModuleLoss.quantized, ModuleLoss.quantized_many

        def counted_init(self, *args, **kwargs):
            calls["losses"] += 1
            init(self, *args, **kwargs)

        def counted_one(self, qcfg, scale=None):
            calls["rtn" if scale is None else "quantized"] += 1
            return one(self, qcfg, scale)

        def counted_many(self, qcfg, scales):
            calls["quantized_many"] += 1
            return many(self, qcfg, scales)

        monkeypatch.setattr(ModuleLoss, "__init__", counted_init)
        monkeypatch.setattr(ModuleLoss, "quantized", counted_one)
        monkeypatch.setattr(ModuleLoss, "quantized_many", counted_many)
        points, _ = pseudo_ft_curve(snaps, calib, MappingConfig(), SearchConfig(), QCFG)
        assert all(math.isfinite(l) for _, l in points)
        modules = len(snaps[-1][1].modules("weight"))
        # plain RTN once per module, then one grid call per module and snapshot past step 0
        assert calls == {
            "losses": modules, "rtn": modules, "quantized_many": modules * (snapshots - 1)
        }

    @pytest.mark.parametrize(
        "scfg", [SearchConfig(), SearchConfig(grid_points=7, alpha_lo=0.1, max_calib_rows=16)]
    )
    def test_points_are_the_mean_searched_loss(self, scfg):
        snaps, calib = self._run(4)
        final = snaps[-1][1]
        points, _ = pseudo_ft_curve(snaps, calib, MappingConfig(), scfg, QCFG)
        want = []
        for step, snap in snaps[1:]:
            imps = importance_all(snaps[0][1], snap, MappingConfig(), calib)
            best = [
                search_scale(
                    ModuleLoss(final[f"{m}.weight"], calib.inputs[m][: scfg.max_calib_rows], m),
                    imps[m], scfg, QCFG,
                ).best_loss
                for m in final.modules("weight")
            ]
            want.append((step, float(np.mean(best))))
        assert points == want

    def test_missing_calibration_names_the_module(self):
        snaps, calib = self._run(3)
        del calib.inputs["layer1"]
        with pytest.raises(ValueError, match="missing calibration inputs for module 'layer1'"):
            pseudo_ft_curve(snaps, calib, MappingConfig(), SearchConfig(), QCFG)

    def test_importance_of_other_length_names_the_module(self):
        # step 0 and step 10 of an 8-16-8 run, then a final 8-12-8 checkpoint
        snaps, _ = self._run(3)
        narrow = init_model([8, 12, 8], seed=1)
        _, calib = forward(narrow, np.ones((16, 8), np.float32))
        final = (20, train(narrow, TrainConfig(steps=1))[1][-1][1])
        with pytest.raises(ValueError, match="importance length .* module 'layer1'"):
            pseudo_ft_curve(snaps[:2] + [final], calib, MappingConfig(), SearchConfig(), QCFG)

    def test_module_sets_that_differ_name_the_module(self):
        snaps, _ = self._run(3)
        deep = init_model([8, 16, 8, 8], seed=1)
        _, calib = forward(deep, np.ones((16, 8), np.float32))
        final = (20, train(deep, TrainConfig(steps=1))[1][-1][1])
        with pytest.raises(ValueError, match="'layer2' is missing from the step-0 checkpoint"):
            pseudo_ft_curve(snaps[:2] + [final], calib, MappingConfig(), SearchConfig(), QCFG)

    def test_module_missing_from_the_final_snapshot_names_its_step(self):
        snaps, calib = self._run(3)
        snaps[0][1]["layerX.weight"] = np.ones((8, 8), np.float32)
        with pytest.raises(ValueError, match="'layerX' is missing from the step-20 checkpoint"):
            pseudo_ft_curve(snaps, calib, MappingConfig(), SearchConfig(), QCFG)

    def test_non_positive_importance_names_the_module(self, monkeypatch):
        snaps, calib = self._run(3)
        def negative(pre, post, *_):
            return {m: -np.ones(pre[f"{m}.weight"].shape[1]) for m in pre.modules("weight")}

        monkeypatch.setattr(evaluate, "importance_all", negative)
        with pytest.raises(ValueError, match="strictly positive for module 'layer0'"):
            pseudo_ft_curve(snaps, calib, MappingConfig(), SearchConfig(), QCFG)

    def test_csv_shape(self, toy_run):
        points, slope = pseudo_ft_curve(
            toy_run["snaps"], toy_run["calib"], MappingConfig(), SearchConfig(), QCFG
        )
        lines = curve_csv(points, slope).strip().split("\n")
        assert lines[0] == "step,mean_loss,slope"
        assert len(lines) == 1 + len(points)
        slope_cells = {line.split(",")[2] for line in lines[1:]}
        assert len(slope_cells) == 1  # slope repeated on each row
