"""CLI subcommands: files, exit codes, config precedence, determinism."""

import dataclasses
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from deltaquant import cli
from deltaquant.container import load_container
from deltaquant.evaluate import curve_csv, pseudo_ft_curve
from deltaquant.quant import QuantConfig
from deltaquant.search import SearchConfig
from deltaquant.signals import MappingConfig
from deltaquant.toy import CalibrationSet, TrainConfig

CLI = [sys.executable, "-m", "deltaquant.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, cwd=cwd
    )


def train_run(tmp_path, name="run", steps=300):
    out = tmp_path / name
    res = run_cli(
        "train-toy", "--dims", "8,16,8", "--steps", steps, "--seed", "7",
        "--data-seed", "3", "--snapshot-every", "100", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    return out


class TestTrainToy:
    def test_writes_checkpoints_and_calibration(self, tmp_path):
        out = train_run(tmp_path, steps=300)
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "calib.dqt",
            "ckpt_step000000.dqt",
            "ckpt_step000100.dqt",
            "ckpt_step000200.dqt",
            "ckpt_step000300.dqt",
        ]

    def test_missing_out_is_usage_error(self):
        res = run_cli("train-toy", "--steps", "10")
        assert res.returncode == 2

    def test_rerun_byte_identical(self, tmp_path):
        a = train_run(tmp_path, "a", steps=150)
        b = train_run(tmp_path, "b", steps=150)
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_bad_steps_is_usage_error(self, tmp_path):
        res = run_cli("train-toy", "--steps", "0", "--out", tmp_path / "x")
        assert res.returncode == 2

    @pytest.mark.parametrize("flag,value", [("--calib-rows", "0"), ("--calib-rows", "-1"),
                                            ("--seed", "-1")])
    def test_out_of_range_value_is_usage_error_and_writes_nothing(self, tmp_path, flag, value):
        out = tmp_path / "x"
        res = run_cli("train-toy", "--steps", "10", flag, value, "--out", out)
        assert res.returncode == 2, res.stderr
        assert flag in res.stderr
        assert not out.exists() or not any(out.iterdir())


class TestImportance:
    def test_defaults_echoed_in_meta(self, tmp_path):
        out = train_run(tmp_path)
        imp = tmp_path / "imp.dqt"
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt",
            "--signal", "both-ends-zero", "--out", imp,
        )
        assert res.returncode == 0, res.stderr
        from deltaquant.container import load_container

        tmap = load_container(imp)
        assert tmap.meta["y_min"] == "1.0"
        assert tmap.meta["y_max"] == "10.0"
        assert tmap.meta["signal"] == "both_ends_zero"
        assert sorted(tmap.names()) == ["layer0.importance", "layer1.importance"]

    def test_activation_signal_without_calib_is_usage_error(self, tmp_path):
        out = train_run(tmp_path)
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt",
            "--signal", "activation-sq", "--out", tmp_path / "imp.dqt",
        )
        assert res.returncode == 2
        assert "calib" in res.stderr

    def test_multiply_activation_without_calib_names_the_flag(self, tmp_path):
        out = train_run(tmp_path)
        imp = tmp_path / "imp.dqt"
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt",
            "--multiply-activation", "--out", imp,
        )
        assert res.returncode == 2
        assert "--multiply-activation requires --calib" in res.stderr
        assert "both_ends_zero" not in res.stderr
        assert not imp.exists()

    def test_slicing_path_runs_and_differs_when_zeros_differ(self, tmp_path):
        # hand-built checkpoints with zeros confined to the first row band
        from deltaquant.container import TensorMap, load_container, save_container

        rng = np.random.default_rng(0)
        pre_w = rng.standard_normal((8, 4)).astype(np.float32)
        post_w = pre_w.copy()
        post_w[4:, :] += rng.uniform(0.1, 0.5, (4, 4)).astype(np.float32)
        pre = tmp_path / "pre.dqt"
        post = tmp_path / "post.dqt"
        save_container(TensorMap({"layer0.weight": pre_w}), pre)
        save_container(TensorMap({"layer0.weight": post_w}), post)
        outs = {}
        for slices in (1, 2):
            dst = tmp_path / f"imp{slices}.dqt"
            res = run_cli(
                "importance", "--pre", pre, "--post", post,
                "--slices", slices, "--out", dst,
            )
            assert res.returncode == 0, res.stderr
            outs[slices] = load_container(dst)["layer0.importance"]
        assert outs[1].shape == outs[2].shape
        assert not np.array_equal(outs[1], outs[2])

    def test_unknown_signal_is_usage_error(self, tmp_path):
        out = train_run(tmp_path)
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt",
            "--signal", "sideways", "--out", tmp_path / "imp.dqt",
        )
        assert res.returncode == 2

    def test_nan_zero_epsilon_is_usage_error(self, tmp_path):
        out = train_run(tmp_path)
        imp = tmp_path / "imp.dqt"
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt",
            "--zero-epsilon", "nan", "--out", imp,
        )
        assert res.returncode == 2
        assert "zero_epsilon" in res.stderr
        assert not imp.exists()

    def test_non_finite_checkpoint_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out = train_run(tmp_path)
        post = load_container(out / "ckpt_step000300.dqt")
        post["layer0.weight"][0, 0] = np.nan
        bad = tmp_path / "post_nan.dqt"
        save_container(post, bad)
        imp = tmp_path / "imp.dqt"
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", bad, "--out", imp,
        )
        assert res.returncode == 1
        assert "layer0.weight" in res.stderr
        assert not imp.exists()

    def test_too_many_slices_names_the_module(self, tmp_path):
        # layer0 of the 8,16,8 model has 16 rows, fewer than the 100 slices asked for
        out = train_run(tmp_path)
        imp = tmp_path / "imp.dqt"
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt", "--slices", "100", "--out", imp,
        )
        assert res.returncode == 1
        assert "'layer0'" in res.stderr and "slices must be in [1, 16]" in res.stderr
        assert not imp.exists()

    def test_scores_beyond_float32_are_runtime_error(self, tmp_path):
        out = train_run(tmp_path)
        imp = tmp_path / "imp.dqt"
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt", "--y-max", "1e39", "--out", imp,
        )
        assert res.returncode == 1, res.stderr
        assert "'layer1'" in res.stderr and "float32" in res.stderr
        assert "Warning" not in res.stderr
        assert not imp.exists()

    def test_scores_beyond_float64_name_the_module(self, tmp_path):
        # a column mean of scores near 1e308 overflows float64 before any float32 cast
        out = train_run(tmp_path)
        imp = tmp_path / "imp.dqt"
        res = run_cli(
            "importance", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt", "--y-max", "1e308", "--out", imp,
        )
        assert res.returncode == 1, res.stderr
        assert "'layer0'" in res.stderr
        assert "overflow encountered" not in res.stderr
        assert not imp.exists()

    def test_missing_file_is_runtime_error(self, tmp_path):
        res = run_cli(
            "importance", "--pre", tmp_path / "nope.dqt",
            "--post", tmp_path / "nope2.dqt", "--out", tmp_path / "imp.dqt",
        )
        assert res.returncode == 1


def full_pipeline(tmp_path, bits=3, extra_quant=()):
    out = train_run(tmp_path, f"run_b{bits}", steps=300)
    imp = tmp_path / f"imp_b{bits}.dqt"
    art = tmp_path / f"art_b{bits}.dqt"
    rep = tmp_path / f"report_b{bits}.jsonl"
    ev = tmp_path / f"eval_b{bits}.json"
    r = run_cli(
        "importance", "--pre", out / "ckpt_step000000.dqt",
        "--post", out / "ckpt_step000300.dqt", "--out", imp,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "quantize", "--post", out / "ckpt_step000300.dqt", "--importance", imp,
        "--calib", out / "calib.dqt", "--bits", bits, "--group-size", "4",
        "--out", art, "--report", rep, *extra_quant,
    )
    assert r.returncode == 0, r.stderr
    r = run_cli(
        "eval", "--post", out / "ckpt_step000300.dqt", "--artifact", art,
        "--calib", out / "calib.dqt", "--out", ev,
    )
    assert r.returncode == 0, r.stderr
    return out, imp, art, rep, ev


class TestQuantizeAndEval:
    def test_report_curves_and_never_worse(self, tmp_path):
        _, _, _, rep, ev = full_pipeline(tmp_path, bits=3, extra_quant=("--grid-points", "20"))
        lines = rep.read_text().strip().split("\n")
        meta = json.loads(lines[0])
        assert meta["grid_points"] == 20
        mods = [json.loads(l) for l in lines[1:]]
        assert len(mods) == 2
        for m in mods:
            assert len(m["loss_curve"]) == 20
            assert m["best_loss"] <= m["rtn_loss"] + 1e-9
        report = json.loads(ev.read_text())
        for module, stats in report["per_module"].items():
            assert stats["searched_mse"] <= stats["rtn_mse"]

    def test_full_protection_gives_zero_mse(self, tmp_path):
        _, _, _, _, ev = full_pipeline(tmp_path, bits=3, extra_quant=("--protect", "1.0"))
        report = json.loads(ev.read_text())
        for stats in report["per_module"].values():
            assert stats["protected_mse"] <= 1e-10
        assert report["end_to_end"]["output_mse_fp32_vs_quant"] <= 1e-10

    def test_non_finite_calibration_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, imp, art, _, _ = full_pipeline(tmp_path, bits=3)
        calib = load_container(out / "calib.dqt")
        calib["layer1.calib_inputs"][2, 3] = np.inf
        bad = tmp_path / "calib_inf.dqt"
        save_container(calib, bad)
        post = out / "ckpt_step000300.dqt"
        art2 = tmp_path / "art2.dqt"
        res = run_cli(
            "quantize", "--post", post, "--importance", imp, "--calib", bad,
            "--bits", "3", "--group-size", "4", "--out", art2,
        )
        assert res.returncode == 1
        assert "layer1" in res.stderr
        assert not art2.exists()
        assert not art2.with_suffix(".report.jsonl").exists()
        ev = tmp_path / "eval_bad.json"
        res = run_cli("eval", "--post", post, "--artifact", art, "--calib", bad, "--out", ev)
        assert res.returncode == 1
        assert "layer1" in res.stderr
        assert not ev.exists()

    def test_float_zero_points_artifact_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, _, art, _, _ = full_pipeline(tmp_path, bits=3)
        tmap = load_container(art)
        tmap["layer0.zeros"] = np.zeros((16, 2), np.float32)
        del tmap.elements["layer0.zeros"]
        old = tmp_path / "art_f32_zeros.dqt"
        save_container(tmap, old)
        ev = tmp_path / "eval_old.json"
        res = run_cli(
            "eval", "--post", out / "ckpt_step000300.dqt", "--artifact", old,
            "--calib", out / "calib.dqt", "--out", ev,
        )
        assert res.returncode == 1
        assert "layer0" in res.stderr and "re-run quantize" in res.stderr
        assert not ev.exists()

    def test_artifact_of_other_shapes_is_runtime_error(self, tmp_path):
        from deltaquant.container import save_container
        from deltaquant.quant import artifact_to_map, rtn_quantize
        from deltaquant.toy import init_model

        out = train_run(tmp_path, steps=100)
        # an 8-32-8 model's artifact against the run's 8-16-8 checkpoint
        wide = init_model([8, 32, 8], seed=7)
        cfg = QuantConfig(bits=3, group_size=4)
        art = tmp_path / "art_wide.dqt"
        save_container(
            artifact_to_map({l.name: rtn_quantize(l.weight, cfg) for l in wide.layers}), art
        )
        ev = tmp_path / "eval_wide.json"
        res = run_cli(
            "eval", "--post", out / "ckpt_step000100.dqt", "--artifact", art,
            "--calib", out / "calib.dqt", "--out", ev,
        )
        assert res.returncode == 1
        assert "module 'layer0' is [32, 8]" in res.stderr
        assert "broadcast" not in res.stderr
        assert not ev.exists()

    def test_corrupt_artifact_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, _, art, _, _ = full_pipeline(tmp_path, bits=3, extra_quant=("--protect", "0.25"))
        for field, corrupt in (
            ("channel_scale", np.negative),  # would decode to the negated weights
            ("scales", lambda a: np.where(np.indices(a.shape)[0] == 1, np.nan, a)),
            ("protected_values", lambda a: np.full_like(a, np.inf)),
        ):
            tmap = load_container(art)
            tmap[f"layer0.{field}"] = corrupt(tmap[f"layer0.{field}"]).astype(np.float32)
            bad = tmp_path / f"art_{field}.dqt"
            save_container(tmap, bad)
            ev = tmp_path / f"eval_{field}.json"
            res = run_cli(
                "eval", "--post", out / "ckpt_step000300.dqt", "--artifact", bad,
                "--calib", out / "calib.dqt", "--out", ev,
            )
            assert res.returncode == 1, field
            assert "layer0" in res.stderr and field in res.stderr
            assert not ev.exists()

    def test_misshaped_artifact_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, _, art, _, _ = full_pipeline(tmp_path, bits=3, extra_quant=("--protect", "0.25"))
        tmap = load_container(art)
        tmap["layer0.protected_values"] = tmap["layer0.protected_values"].ravel()
        bad = tmp_path / "art_1d.dqt"
        save_container(tmap, bad)
        ev = tmp_path / "eval_1d.json"
        res = run_cli(
            "eval", "--post", out / "ckpt_step000300.dqt", "--artifact", bad,
            "--calib", out / "calib.dqt", "--out", ev,
        )
        assert res.returncode == 1
        assert "'layer0'" in res.stderr and "protected_values" in res.stderr
        assert not ev.exists()

    @pytest.mark.parametrize(
        "tag,corrupt,message",
        [
            ("short_rows",
             lambda t: t.__setitem__("layer0.protected_values", t["layer0.protected_values"][:3]),
             "protected_values"),
            ("wide_groups", lambda t: t.meta.__setitem__("group_size", "8"), "scales"),
        ],
    )
    def test_inconsistent_artifact_fields_name_the_module(self, tmp_path, tag, corrupt, message):
        from deltaquant.container import load_container, save_container

        out, _, art, _, _ = full_pipeline(tmp_path, bits=3, extra_quant=("--protect", "0.25"))
        tmap = load_container(art)
        corrupt(tmap)
        bad = tmp_path / f"art_{tag}.dqt"
        save_container(tmap, bad)
        ev = tmp_path / f"eval_{tag}.json"
        res = run_cli(
            "eval", "--post", out / "ckpt_step000300.dqt", "--artifact", bad,
            "--calib", out / "calib.dqt", "--out", ev,
        )
        assert res.returncode == 1, res.stderr
        assert "'layer0'" in res.stderr and message in res.stderr
        assert not ev.exists()

    def test_importance_for_unknown_module_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, imp, _, _, _ = full_pipeline(tmp_path, bits=3)
        tmap = load_container(imp)
        tmap["layer9.importance"] = np.ones(3, np.float32)
        bad = tmp_path / "imp_extra.dqt"
        save_container(tmap, bad)
        art = tmp_path / "art_extra.dqt"
        res = run_cli(
            "quantize", "--post", out / "ckpt_step000300.dqt", "--importance", bad,
            "--calib", out / "calib.dqt", "--bits", "3", "--group-size", "4", "--out", art,
        )
        assert res.returncode == 1, res.stderr
        assert "'layer9'" in res.stderr and "checkpoint" in res.stderr
        assert not art.exists()
        assert not art.with_suffix(".report.jsonl").exists()

    def test_misshaped_importance_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, imp, _, _, _ = full_pipeline(tmp_path, bits=3)
        for tag, reshape in (("short", lambda a: a[:-1]), ("2d", lambda a: a[None, :])):
            tmap = load_container(imp)
            tmap["layer0.importance"] = np.ascontiguousarray(reshape(tmap["layer0.importance"]))
            bad = tmp_path / f"imp_{tag}.dqt"
            save_container(tmap, bad)
            art = tmp_path / f"art_{tag}.dqt"
            res = run_cli(
                "quantize", "--post", out / "ckpt_step000300.dqt", "--importance", bad,
                "--calib", out / "calib.dqt", "--bits", "3", "--group-size", "4", "--out", art,
            )
            assert res.returncode == 1, tag
            assert "'layer0'" in res.stderr and "in_features" in res.stderr, tag
            assert not art.exists()
            assert not art.with_suffix(".report.jsonl").exists()

    def test_non_finite_importance_is_runtime_error(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, imp, _, _, _ = full_pipeline(tmp_path, bits=3)
        tmap = load_container(imp)
        tmap["layer1.importance"][3] = np.nan
        bad = tmp_path / "imp_nan.dqt"
        save_container(tmap, bad)
        art = tmp_path / "art_nan.dqt"
        res = run_cli(
            "quantize", "--post", out / "ckpt_step000300.dqt", "--importance", bad,
            "--calib", out / "calib.dqt", "--bits", "3", "--group-size", "4", "--out", art,
        )
        assert res.returncode == 1
        assert "layer1" in res.stderr
        assert not art.exists()
        assert not art.with_suffix(".report.jsonl").exists()

    def test_bad_calibration_statistics_is_runtime_error(self, tmp_path):
        # the activation statistics are derived from the rows, so a NaN row
        # or a width mismatch fails every command that reads them
        from deltaquant.container import load_container, save_container

        out = train_run(tmp_path)
        pre, post = out / "ckpt_step000000.dqt", out / "ckpt_step000300.dqt"
        for tag, corrupt in (
            ("nan", lambda t: t["layer0.calib_inputs"].__setitem__((4, 1), np.nan)),
            ("width", lambda t: t.__setitem__("layer0.calib_inputs", np.ones((5, 3), np.float32))),
        ):
            calib = load_container(out / "calib.dqt")
            corrupt(calib)
            bad = tmp_path / f"calib_{tag}.dqt"
            save_container(calib, bad)
            for name, args in (
                ("sq.dqt", ["importance", "--signal", "activation-sq"]),
                ("mul.dqt", ["importance", "--multiply-activation"]),
                ("ablation.csv", ["ablate", "--bits", "3", "--group-size", "4"]),
            ):
                dst = tmp_path / f"{tag}_{name}"
                res = run_cli(*args, "--pre", pre, "--post", post, "--calib", bad, "--out", dst)
                assert res.returncode == 1, (tag, name)
                assert "layer0" in res.stderr
                assert not dst.exists()

    def test_eval_crosscheck_against_report(self, tmp_path):
        _, _, _, rep, ev = full_pipeline(tmp_path, bits=4)
        by_module = {
            json.loads(l)["module"]: json.loads(l) for l in rep.read_text().strip().split("\n")[1:]
        }
        report = json.loads(ev.read_text())
        for module, stats in report["per_module"].items():
            assert abs(stats["rtn_mse"] - by_module[module]["rtn_loss"]) < 1e-9


class TestAblate:
    def test_ten_rows_and_row_count(self, tmp_path):
        out = train_run(tmp_path)
        csv = tmp_path / "ablation.csv"
        res = run_cli(
            "ablate", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt", "--calib", out / "calib.dqt",
            "--signals", "magnitude,mid,both-ends,both-ends-zero,activation-sq",
            "--fractions", "0.05,0.3", "--bits", "3", "--group-size", "4",
            "--out", csv,
        )
        assert res.returncode == 0, res.stderr
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "signal,fraction,module,mse,end_to_end_mse"
        # 10 (signal, fraction) rows x (2 modules + mean line)
        assert len(lines) == 1 + 10 * 3

    def test_empty_signals_is_usage_error(self, tmp_path):
        out = train_run(tmp_path)
        res = run_cli(
            "ablate", "--pre", out / "ckpt_step000000.dqt",
            "--post", out / "ckpt_step000300.dqt", "--calib", out / "calib.dqt",
            "--signals", "", "--out", tmp_path / "ablation.csv",
        )
        assert res.returncode == 2


class TestCurve:
    def test_curve_csv_complete(self, tmp_path):
        out = train_run(tmp_path, steps=500)
        csv = tmp_path / "curve.csv"
        res = run_cli(
            "curve", "--run", out, "--bits", "3", "--group-size", "4", "--out", csv
        )
        assert res.returncode == 0, res.stderr
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "step,mean_loss,slope"
        steps = [int(l.split(",")[0]) for l in lines[1:]]
        assert steps == [100, 200, 300, 400, 500]
        for line in lines[1:]:
            assert line.split(",")[1] != "nan"

    def test_final_checkpoint_is_the_highest_step(self, tmp_path):
        # from 1,000,000 steps on, the six-digit names stop sorting by step
        out = train_run(tmp_path, steps=300)
        (out / "ckpt_step000200.dqt").rename(out / "ckpt_step999900.dqt")
        (out / "ckpt_step000300.dqt").rename(out / "ckpt_step1000000.dqt")
        csv = tmp_path / "curve.csv"
        res = run_cli("curve", "--run", out, "--bits", "3", "--group-size", "4", "--out", csv)
        assert res.returncode == 0, res.stderr
        snapshots = [
            (int(p.stem[len("ckpt_step"):]), load_container(p)) for p in out.glob("ckpt_step*.dqt")
        ]
        calib = CalibrationSet.from_tensor_map(load_container(out / "calib.dqt"))
        qcfg = QuantConfig(bits=3, group_size=4)
        want = curve_csv(*pseudo_ft_curve(snapshots, calib, MappingConfig(), SearchConfig(), qcfg))
        assert csv.read_text() == want


class TestConfigAndHelp:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "dq.cfg"
        cfg.write_text("train.steps = 120\ntrain.dims = 4,6,4\n# comment\n")
        out = tmp_path / "cfgrun"
        res = run_cli("train-toy", "--config", cfg, "--out", out)
        assert res.returncode == 0, res.stderr
        assert (out / "ckpt_step000120.dqt").exists()

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "dq.cfg"
        cfg.write_text("train.steps = 120\n")
        out = tmp_path / "cfgrun2"
        res = run_cli("train-toy", "--config", cfg, "--steps", "60", "--dims", "4,6,4", "--out", out)
        assert res.returncode == 0, res.stderr
        assert (out / "ckpt_step000060.dqt").exists()
        assert not (out / "ckpt_step000120.dqt").exists()

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "dq.cfg"
        for key in ("train.stepz", "run.threads", "search.no_normalize"):
            cfg.write_text(f"{key} = 4\n")
            res = run_cli("train-toy", "--config", cfg, "--out", tmp_path / "x")
            assert res.returncode == 2
            assert key in res.stderr

    @pytest.mark.parametrize(
        "command", ["train-toy", "importance", "quantize", "eval", "ablate", "curve"]
    )
    def test_help_lists_defaults(self, command):
        res = run_cli(command, "--help")
        assert res.returncode == 0
        assert "default:" in res.stdout
        assert "--threads" not in res.stdout
        assert "--no-normalize" not in res.stdout

    def test_bad_threads_rejected(self, tmp_path):
        # parallelism and scale normalization are not user settings: the flags are unknown
        for args in (("train-toy", "--threads", "4"), ("quantize", "--no-normalize")):
            res = run_cli(*args, "--out", tmp_path / "x")
            assert res.returncode == 2
            assert args[1] in res.stderr

    def test_unpackable_bits_rejected(self, tmp_path):
        out = train_run(tmp_path, steps=100)
        res = run_cli(
            "quantize", "--post", out / "ckpt_step000100.dqt",
            "--importance", out / "calib.dqt", "--calib", out / "calib.dqt",
            "--bits", "5", "--out", tmp_path / "a.dqt",
        )
        assert res.returncode == 2
        assert "--bits" in res.stderr

    @pytest.mark.parametrize(
        "cls,opts",
        [
            (MappingConfig, [cli._SIGNAL, *cli._MAP_OPTS]),
            (QuantConfig, [*cli._QUANT_OPTS, cli._PROTECT]),
            (SearchConfig, cli._SEARCH_OPTS),
            (TrainConfig, cli._TRAIN_OPTS),
        ],
    )
    def test_every_config_field_has_an_option(self, cls, opts):
        # the CLI fills a config field from the option whose key ends in its name
        keys = {opt.key.partition(".")[2] for opt in opts}
        assert {field.name for field in dataclasses.fields(cls)} <= keys

    def test_rejected_option_values_are_echoed(self, tmp_path):
        res = run_cli("train-toy", "--steps", "0", "--lr", "0.5", "--out", tmp_path / "x")
        assert res.returncode == 2
        assert "--steps 0 --lr 0.5" in res.stderr and "steps must be >= 1" in res.stderr
        assert not (tmp_path / "x").exists()


def unloadable_inputs(tmp_path):
    """Base arguments per command whose inputs fail to load (exit 1 once read)."""
    bad = tmp_path / "bad.dqt"
    bad.write_bytes(b"not a container")
    blocked = tmp_path / "blocked"
    blocked.write_text("a file where train-toy wants a directory")
    run = tmp_path / "run"
    run.mkdir()
    for name in ("ckpt_step000000.dqt", "ckpt_step000100.dqt", "calib.dqt"):
        (run / name).write_bytes(b"not a container")
    out = tmp_path / "out"
    return {
        "train-toy": ["train-toy", "--out", blocked / "run"],
        "importance": ["importance", "--pre", bad, "--post", bad, "--out", out],
        "quantize": ["quantize", "--post", bad, "--importance", bad, "--calib", bad, "--out", out],
        "ablate": ["ablate", "--pre", bad, "--post", bad, "--calib", bad, "--out", out],
        "curve": ["curve", "--run", run, "--out", out],
    }


class TestValuesCheckedBeforeInputs:
    @pytest.mark.parametrize(
        "command,flag_args,config_line,config_flag",
        [
            ("train-toy", ["--steps", "0"], "train.learning_rate = -1", "--lr"),
            ("importance", ["--y-min", "20"], "map.slices = 0", "--slices"),
            ("quantize", ["--bits", "5"], "search.grid_points = 1", "--grid-points"),
            ("ablate", ["--group-size", "0"], "map.zero_epsilon = nan", "--zero-epsilon"),
            ("curve", ["--alpha-hi", "-1"], "quant.group_size = x", "--group-size"),
        ],
    )
    def test_rejected_config_value_is_usage_error(
        self, tmp_path, command, flag_args, config_line, config_flag
    ):
        base = unloadable_inputs(tmp_path)[command]
        assert run_cli(*base).returncode == 1  # the inputs really fail once read
        res = run_cli(*base, *flag_args)
        assert res.returncode == 2, res.stderr
        assert flag_args[0] in res.stderr
        cfg = tmp_path / "dq.cfg"
        cfg.write_text(config_line + "\n")
        res = run_cli(*base, "--config", cfg)
        assert res.returncode == 2, res.stderr
        assert config_flag in res.stderr

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("train-toy", "--dims", "8"),
            ("train-toy", "--dims", "8,x"),
            ("train-toy", "--dims", ""),
            ("ablate", "--signals", "mid,sideways"),
            ("ablate", "--signals", ""),
            ("ablate", "--fractions", "0.1,1.5"),
            ("ablate", "--fractions", "nan"),
            ("ablate", "--fractions", "-0.1"),
            ("ablate", "--fractions", ""),
        ],
    )
    def test_bad_list_value_is_usage_error(self, tmp_path, command, flag, value):
        res = run_cli(*unloadable_inputs(tmp_path)[command], flag, value)
        assert res.returncode == 2, res.stderr
        assert flag in res.stderr

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("train-toy", "--lr", "inf"),
            ("importance", "--y-max", "inf"),
            ("importance", "--zero-epsilon", "inf"),
            ("quantize", "--alpha-hi", "inf"),
            ("ablate", "--zero-epsilon", "inf"),
            ("curve", "--y-max", "inf"),
        ],
    )
    def test_infinite_value_is_usage_error(self, tmp_path, command, flag, value):
        res = run_cli(*unloadable_inputs(tmp_path)[command], flag, value)
        assert res.returncode == 2, res.stderr
        assert f"{flag} {value}" in res.stderr and "finite" in res.stderr

    @pytest.mark.parametrize(
        "command,flag,value",
        [("ablate", "--signal", "mid"), ("ablate", "--protect", "0.1"),
         ("curve", "--protect", "0.1")],
    )
    def test_flag_that_changes_no_output_is_unknown(self, tmp_path, command, flag, value):
        # ablate's signals come from --signals and its protection from --fractions;
        # curve reports search losses, which protection never changes
        res = run_cli(*unloadable_inputs(tmp_path)[command], flag, value)
        assert res.returncode == 2, res.stderr
        assert f"unrecognized arguments: {flag} {value}" in res.stderr
        shown = run_cli(command, "--help").stdout
        assert re.search(re.escape(flag) + r"\b", shown) is None


class TestHelpDefaults:
    @pytest.mark.parametrize(
        "command,count",
        [("train-toy", 5), ("importance", 6), ("quantize", 7), ("ablate", 7), ("curve", 12)],
    )
    def test_help_default_is_the_dataclass_default(self, command, count):
        env = dict(os.environ, COLUMNS="400")  # no wrapped help lines
        res = subprocess.run(CLI + [command, "--help"], capture_output=True, text=True, env=env)
        assert res.returncode == 0
        configs = {"map": MappingConfig, "quant": QuantConfig, "search": SearchConfig,
                   "train": TrainConfig}
        checked = 0
        for opt in cli._COMMANDS[command][2]:
            section, _, name = (opt.key or "").partition(".")
            fields = dataclasses.fields(configs[section]) if section in configs else ()
            default = {f.name: f.default for f in fields}.get(name, dataclasses.MISSING)
            if default is dataclasses.MISSING:
                continue
            # the help of a long flag starts on the next line
            shown = re.search(
                r"^\s+" + re.escape(opt.flag) + r"\b.*?\(default: (\S+)\)",
                res.stdout, re.MULTILINE | re.DOTALL,
            )
            assert shown, opt.flag
            if isinstance(default, bool):
                assert shown.group(1) == str(default).lower(), opt.flag
            else:
                assert type(default)(shown.group(1)) == default, opt.flag
            checked += 1
        assert checked == count


class TestParserCache:
    def test_consecutive_commands_see_only_their_own_values(self, monkeypatch):
        seen = []
        for name, (_, description, opts) in cli._COMMANDS.items():
            monkeypatch.setitem(
                cli._COMMANDS, name, (lambda ns: seen.append(ns) or 0, description, opts)
            )
        importance = ["importance", "--pre", "a", "--post", "b", "--out", "c"]
        assert cli.main(importance + ["--signal", "magnitude", "--slices", "3",
                                      "--calib", "x"]) == 0
        assert cli.main(["curve", "--run", "r", "--out", "o"]) == 0
        assert cli.main(importance) == 0
        first, second, third = seen
        assert cli._build_parser() is cli._build_parser()
        assert first.map == MappingConfig(signal="magnitude", slices=3)
        assert (second.command, second.out, second.map) == ("curve", "o", MappingConfig())
        assert not hasattr(second, "pre")
        assert (third.map, third.calib) == (MappingConfig(), None)


class TestDeterminism:
    def test_rerun_does_not_change_bytes(self, tmp_path):
        outs = {}
        for tag in ("a", "b"):
            base = tmp_path / tag
            base.mkdir()
            run = train_run(base, steps=200)
            imp = base / "imp.dqt"
            art = base / "art.dqt"
            rep = base / "report.jsonl"
            for args in (
                ("importance", "--pre", run / "ckpt_step000000.dqt",
                 "--post", run / "ckpt_step000200.dqt", "--out", imp),
                ("quantize", "--post", run / "ckpt_step000200.dqt",
                 "--importance", imp, "--calib", run / "calib.dqt",
                 "--bits", "3", "--group-size", "4", "--out", art,
                 "--report", rep),
            ):
                res = run_cli(*args)
                assert res.returncode == 0, res.stderr
            outs[tag] = [
                p.read_bytes()
                for p in sorted(base.rglob("*"))
                if p.is_file()
            ]
        assert outs["a"] == outs["b"]

    def test_outputs_independent_of_blas_thread_count(self, tmp_path):
        # BLAS splits a threaded reduction differently at each thread count;
        # every loss and norm must therefore reduce in a fixed order
        outs = {}
        for threads in ("1", "2"):
            base = tmp_path / f"threads{threads}"
            run = base / "run"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            for args in (
                ("train-toy", "--dims", "64,256,64", "--steps", "200",
                 "--calib-rows", "512", "--out", run),
                ("importance", "--pre", run / "ckpt_step000000.dqt",
                 "--post", run / "ckpt_step000200.dqt", "--out", base / "imp.dqt"),
                ("quantize", "--post", run / "ckpt_step000200.dqt",
                 "--importance", base / "imp.dqt", "--calib", run / "calib.dqt",
                 "--out", base / "art.dqt"),
                ("eval", "--post", run / "ckpt_step000200.dqt", "--artifact", base / "art.dqt",
                 "--calib", run / "calib.dqt", "--out", base / "eval.json"),
                ("ablate", "--pre", run / "ckpt_step000000.dqt", "--post", run / "ckpt_step000200.dqt",
                 "--calib", run / "calib.dqt", "--out", base / "ablation.csv"),
                ("curve", "--run", run, "--out", base / "curve.csv"),
            ):
                res = subprocess.run(
                    CLI + [str(a) for a in args], capture_output=True, text=True, env=env
                )
                assert res.returncode == 0, res.stderr
            outs[threads] = {
                str(p.relative_to(base)): p.read_bytes() for p in base.rglob("*") if p.is_file()
            }
        assert sorted(outs["1"]) == sorted(outs["2"])
        differ = [name for name in sorted(outs["1"]) if outs["1"][name] != outs["2"][name]]
        assert differ == []
