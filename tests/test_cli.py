"""CLI subcommands: files, exit codes, config precedence, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest

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
