"""CLI subcommands: files, exit codes, config precedence, determinism."""

import dataclasses
import json
import os
import re
import subprocess

import numpy as np
import pytest

from cli_runner import CLI, run_cli
from deltaquant import cli
from deltaquant.container import load_container
from deltaquant.evaluate import curve_csv, pseudo_ft_curve
from deltaquant.quant import QuantConfig
from deltaquant.search import SearchConfig
from deltaquant.signals import MappingConfig
from deltaquant.toy import CalibrationSet, TrainConfig

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
        # into the same directory, whose snapshots the rerun overwrites
        out = train_run(tmp_path, steps=150)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        train_run(tmp_path, steps=150)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_snapshot_the_run_does_not_write_is_usage_error(self, tmp_path):
        # curve would read the longer earlier run's steps 200 and 300 with this run's
        out = train_run(tmp_path, steps=300)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        res = run_cli("train-toy", "--dims", "8,16,8", "--steps", "100", "--seed", "2",
                      "--snapshot-every", "100", "--out", out)
        assert res.returncode == 2, res.stderr
        assert "ckpt_step000200.dqt is not a snapshot of this run" in res.stderr
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_bad_steps_is_usage_error(self, tmp_path):
        res = run_cli("train-toy", "--steps", "0", "--out", tmp_path / "x")
        assert res.returncode == 2

    @pytest.mark.parametrize(
        "dims,steps,lr,code,message",
        [
            # np.float32(1e39) is inf
            ("8,16,8", "1", "1e39", 2,
             r"--lr 1e39: learning_rate must be > 0 and finite in float32"),
            # step 2's loss is finite, its update is not
            ("8,16,8", "2", "1e15", 1, r"non-finite tensor 'layer\d\.(weight|bias)' at step 2"),
            # finite weights whose calibration forward pass overflows, in a
            # hidden layer or in the output
            ("8,16,16,16,8", "1", "1e20", 1,
             r"activations of module 'layer[0-2]' are not finite"),
            ("8,16,8", "1", "1e20", 1,
             r"activations of module 'layer1' are not finite"),
        ],
        ids=["lr-beyond-float32", "last-update", "hidden-overflow", "output-overflow"],
    )
    def test_non_finite_run_writes_nothing(self, tmp_path, dims, steps, lr, code, message):
        # warnings printed, not raised: the run reports the failure without one
        out = tmp_path / "x"
        env = {**os.environ, "PYTHONWARNINGS": "default"}
        res = subprocess.run(CLI + ["train-toy", "--dims", dims, "--steps", steps, "--lr", lr,
                                    "--out", str(out)], capture_output=True, text=True, env=env)
        assert res.returncode == code, res.stderr
        assert re.search(message, res.stderr), res.stderr
        assert "Warning" not in res.stderr
        assert not out.exists() or not any(out.iterdir())

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, monkeypatch):
        afile = tmp_path / "afile"
        afile.write_text("not a run directory")
        trained = []
        monkeypatch.setattr(cli, "train", lambda *args: trained.append(args))
        res = run_cli("train-toy", "--steps", "10", "--out", afile)
        assert res.returncode == 2, res.stderr
        assert f"{afile}: it is not a directory" in res.stderr
        assert trained == [] and afile.read_text() == "not a run directory"

    @pytest.mark.parametrize("under", ["run", "a/b"])
    def test_out_under_a_file_is_usage_error(self, tmp_path, monkeypatch, under):
        blocked = tmp_path / "blocked"
        blocked.write_text("not a run directory")
        monkeypatch.setattr(cli, "train", lambda *args: pytest.fail("trained"))
        res = run_cli("train-toy", "--steps", "10", "--out", blocked / under)
        assert res.returncode == 2, res.stderr
        assert f"cannot write snapshots under {blocked}: it is not a directory" in res.stderr
        assert blocked.read_text() == "not a run directory"

    def test_config_among_the_outputs_is_usage_error(self, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        cfg = out / "calib.dqt"
        cfg.write_text("train.steps = 100\n")
        res = run_cli("train-toy", "--config", cfg, "--out", out)
        assert res.returncode == 2, res.stderr
        assert f"cannot write {cfg}: the command reads {cfg}" in res.stderr
        assert [p.name for p in out.iterdir()] == ["calib.dqt"]
        assert cfg.read_text() == "train.steps = 100\n"

    @pytest.mark.parametrize("flag,value", [("--calib-rows", "0"), ("--calib-rows", "-1"),
                                            ("--seed", "-1"), ("--data-seed", "-1"),
                                            ("--dims", "8,0,8"), ("--dims", "8,-3,8")])
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

    def test_zero_epsilon_above_every_update_is_named(self, tmp_path):
        # the updates are not zero: the threshold excluded them all
        out = train_run(tmp_path)
        for cmd, extra in (("importance", []), ("ablate", ["--calib", out / "calib.dqt"])):
            target = tmp_path / f"{cmd}.out"
            res = run_cli(cmd, "--pre", out / "ckpt_step000000.dqt",
                          "--post", out / "ckpt_step000300.dqt", *extra,
                          "--zero-epsilon", "100", "--out", target)
            assert res.returncode == 1, res.stderr
            assert "every weight update is at or below zero_epsilon 100.0" in res.stderr
            assert not target.exists()

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

    @pytest.mark.parametrize("command", ["importance", "ablate"])
    def test_checkpoint_without_weights_is_runtime_error(self, tmp_path, command, capsys):
        from deltaquant.container import TensorMap, save_container

        ckpt, calib = tmp_path / "bias_only.dqt", tmp_path / "calib.dqt"
        save_container(TensorMap({"layer0.bias": np.zeros(4, np.float32)}), ckpt)
        save_container(CalibrationSet({"layer0": np.ones((2, 4), np.float32)}).to_tensor_map(),
                       calib)
        out = tmp_path / "out"
        args = [command, "--pre", ckpt, "--post", ckpt, "--calib", calib, "--out", out]
        assert cli.main([str(a) for a in args]) == 1
        assert capsys.readouterr().err == "error: checkpoint contains no '.weight' tensors\n"
        assert not out.exists()

    @pytest.mark.parametrize("shape", [(0, 4), (4, 0)], ids=["no-rows", "no-columns"])
    @pytest.mark.parametrize("command", ["importance", "ablate", "quantize", "eval"])
    def test_empty_weight_names_the_tensor(self, tmp_path, command, shape, capsys):
        # importance and ablate read it through compute_delta, quantize and eval as a ModuleLoss
        from deltaquant.container import TensorMap, save_container
        from deltaquant.quant import artifact_to_map, rtn_quantize

        a = np.random.default_rng(0).standard_normal((4, 4)).astype(np.float32)
        empty = np.zeros(shape, np.float32)
        files = {
            "pre": TensorMap({"a.weight": a, "b.weight": empty}),
            "post": TensorMap({"a.weight": a + 0.5, "b.weight": empty}),
            "calib": CalibrationSet({"a": np.ones((3, 4), np.float32),
                                     "b": np.ones((3, shape[1]), np.float32)}).to_tensor_map(),
            "imp": TensorMap({"a.importance": np.ones(4, np.float32),
                              "b.importance": np.ones(shape[1], np.float32)}),
            "art": artifact_to_map({m: rtn_quantize(a, QuantConfig(group_size=4)) for m in "ab"}),
        }
        path = {name: tmp_path / f"{name}.dqt" for name in files}
        for name, tmap in files.items():
            save_container(tmap, path[name])
        args = {
            "importance": ["--pre", path["pre"], "--post", path["post"], "--calib", path["calib"]],
            "ablate": ["--pre", path["pre"], "--post", path["post"], "--calib", path["calib"]],
            "quantize": ["--post", path["post"], "--importance", path["imp"],
                         "--calib", path["calib"], "--group-size", "4"],
            "eval": ["--post", path["post"], "--artifact", path["art"], "--calib", path["calib"]],
        }[command]
        out = tmp_path / "out"
        assert cli.main([str(a) for a in [command, *args, "--out", out]]) == 1
        assert capsys.readouterr().err == (
            f"error: weight 'b.weight' has shape {list(shape)}; "
            "it needs at least one row and one column\n"
        )
        assert sorted(tmp_path.iterdir()) == sorted(path.values())


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
    def test_alpha_whose_scale_leaves_float32_is_named(self, tmp_path):
        # the run's importance spans a ratio of about 2, so sqrt(2)**1000
        # overflows float32; warnings printed, not raised, and none is
        out, imp, _, _, _ = full_pipeline(tmp_path)
        env = {**os.environ, "PYTHONWARNINGS": "default"}
        message = r"^error: channel scale of alpha [-\d.e+]+ for module 'layer\d' is not positive"
        for args in (
            ["quantize", "--post", out / "ckpt_step000300.dqt", "--importance", imp,
             "--calib", out / "calib.dqt", "--group-size", "4", "--alpha-hi", "1000"],
            ["quantize", "--post", out / "ckpt_step000300.dqt", "--importance", imp,
             "--calib", out / "calib.dqt", "--group-size", "4", "--alpha-lo", "-1000"],
            ["curve", "--run", out, "--alpha-hi", "1000"],
        ):
            res = subprocess.run(CLI + [str(a) for a in (*args, "--out", tmp_path / "bad")],
                                 capture_output=True, text=True, env=env)
            assert res.returncode == 1, res.stderr
            assert re.search(message, res.stderr), res.stderr
            assert "Warning" not in res.stderr
            assert not (tmp_path / "bad").exists()

    def test_missing_output_directory_is_usage_error_and_writes_nothing(self, tmp_path):
        out = train_run(tmp_path)
        imp = tmp_path / "imp.dqt"
        res = run_cli("importance", "--pre", out / "ckpt_step000000.dqt",
                      "--post", out / "ckpt_step000300.dqt", "--out", imp)
        assert res.returncode == 0, res.stderr
        missing = tmp_path / "nodir"
        for art, rep in ((tmp_path / "q.dqt", missing / "r.jsonl"),
                         (missing / "q.dqt", tmp_path / "r.jsonl")):
            res = run_cli("quantize", "--post", out / "ckpt_step000300.dqt", "--importance", imp,
                          "--calib", out / "calib.dqt", "--group-size", "4",
                          "--out", art, "--report", rep)
            assert res.returncode == 2, res.stderr
            assert f"no directory {missing}" in res.stderr
            assert not art.exists() and not rep.exists()

    @pytest.mark.parametrize("command", ["importance", "eval", "ablate", "curve"])
    def test_missing_output_directory_is_named_before_any_input_is_read(
        self, audit_run, tmp_path, monkeypatch, capsys, command
    ):
        _, run, imp = audit_run
        art = tmp_path / "art.dqt"
        if command == "eval":
            assert cli.main(["quantize", "--post", str(run / "ckpt_step000300.dqt"),
                             "--importance", str(imp), "--calib", str(run / "calib.dqt"),
                             "--group-size", "4", "--out", str(art)]) == 0
        pre = ["--pre", str(run / "ckpt_step000000.dqt")]
        post = ["--post", str(run / "ckpt_step000300.dqt")]
        calib = ["--calib", str(run / "calib.dqt")]
        inputs = {
            "importance": pre + post,
            "eval": post + ["--artifact", str(art)] + calib,
            "ablate": pre + post + calib + ["--group-size", "4"],
            "curve": ["--run", str(run), "--group-size", "4"],
        }[command]
        before = sorted(tmp_path.rglob("*"))
        loads = []
        monkeypatch.setattr(cli, "load_container", lambda path: loads.append(path))
        missing = tmp_path / "nodir"
        capsys.readouterr()
        assert cli.main([command, *inputs, "--out", str(missing / "x")]) == 2
        assert f"no directory {missing}" in capsys.readouterr().err
        assert loads == [] and sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "case", ["quantize-report-is-out", "importance-out-is-post", "eval-out-is-artifact",
                 "ablate-out-is-calib", "curve-out-is-snapshot"],
    )
    def test_output_that_names_another_file_is_usage_error(self, tmp_path, case):
        run = train_run(tmp_path)
        pre, post = run / "ckpt_step000000.dqt", run / "ckpt_step000300.dqt"
        snap, calib = run / "ckpt_step000100.dqt", run / "calib.dqt"
        imp, art = tmp_path / "imp.dqt", tmp_path / "art.dqt"
        assert run_cli("importance", "--pre", pre, "--post", post, "--out", imp).returncode == 0
        assert run_cli("quantize", "--post", post, "--importance", imp, "--calib", calib,
                       "--group-size", "4", "--out", art).returncode == 0
        args, target = {
            "quantize-report-is-out": (["quantize", "--post", post, "--importance", imp,
                                        "--calib", calib, "--out", art, "--report", art], art),
            "importance-out-is-post": (["importance", "--pre", pre, "--post", snap,
                                        "--out", snap], snap),
            "eval-out-is-artifact": (["eval", "--post", post, "--artifact", art,
                                      "--calib", calib, "--out", art], art),
            "ablate-out-is-calib": (["ablate", "--pre", pre, "--post", post,
                                     "--calib", calib, "--out", calib], calib),
            "curve-out-is-snapshot": (["curve", "--run", run, "--out", snap], snap),
        }[case]
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        res = run_cli(*args)
        assert res.returncode == 2, res.stderr
        assert f"cannot write {target}: the command " in res.stderr
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

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

    def test_layers_that_do_not_chain_name_the_modules(self, tmp_path, capsys):
        # each module is consistent on its own, but layer1 reads 12 inputs, not layer0's 16
        from deltaquant.container import TensorMap, save_container
        from deltaquant.quant import artifact_to_map, rtn_quantize

        rng = np.random.default_rng(0)
        post = TensorMap({"layer0.weight": rng.standard_normal((16, 8), dtype=np.float32),
                          "layer1.weight": rng.standard_normal((8, 12), dtype=np.float32)})
        cfg = QuantConfig(bits=3, group_size=4)
        artifact = {m: rtn_quantize(post[f"{m}.weight"], cfg) for m in ("layer0", "layer1")}
        calib = CalibrationSet({"layer0": rng.standard_normal((4, 8), dtype=np.float32),
                                "layer1": rng.standard_normal((4, 12), dtype=np.float32)})
        paths = {name: tmp_path / f"{name}.dqt" for name in ("post", "art", "calib")}
        save_container(post, paths["post"])
        save_container(artifact_to_map(artifact), paths["art"])
        save_container(calib.to_tensor_map(), paths["calib"])
        ev = tmp_path / "eval.json"
        assert cli.main(["eval", "--post", str(paths["post"]), "--artifact", str(paths["art"]),
                         "--calib", str(paths["calib"]), "--out", str(ev)]) == 1
        assert "layer shapes do not chain: layer0 -> layer1" in capsys.readouterr().err
        assert not ev.exists()

    def test_eval_ignores_checkpoint_meta(self, tmp_path):
        from deltaquant.container import load_container, save_container

        out, _, art, _, ev = full_pipeline(tmp_path, bits=3)
        post = load_container(out / "ckpt_step000300.dqt")
        post.meta["seed"] = "run-7"
        run7 = tmp_path / "post_run7.dqt"
        save_container(post, run7)
        ev2 = tmp_path / "eval_run7.json"
        res = run_cli(
            "eval", "--post", run7, "--artifact", art, "--calib", out / "calib.dqt",
            "--out", ev2,
        )
        assert res.returncode == 0, res.stderr
        assert ev2.read_bytes() == ev.read_bytes()

    def test_eval_crosscheck_against_report(self, tmp_path):
        _, _, _, rep, ev = full_pipeline(tmp_path, bits=4)
        by_module = {
            json.loads(l)["module"]: json.loads(l) for l in rep.read_text().strip().split("\n")[1:]
        }
        report = json.loads(ev.read_text())
        for module, stats in report["per_module"].items():
            assert stats["rtn_mse"] == by_module[module]["rtn_loss"]
            assert stats["searched_mse"] == by_module[module]["best_loss"]


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

    def test_extra_module_of_the_final_snapshot_names_step_0(self, tmp_path):
        from deltaquant.container import save_container

        out = train_run(tmp_path, steps=100)
        final = load_container(out / "ckpt_step000100.dqt")
        final["layerX.weight"] = np.ones((8, 8), np.float32)
        save_container(final, out / "ckpt_step000100.dqt")
        csv = tmp_path / "curve.csv"
        res = run_cli("curve", "--run", out, "--out", csv)
        assert res.returncode == 1, res.stderr
        assert "module 'layerX' is missing from the step-0 checkpoint" in res.stderr
        assert not csv.exists()

    def test_extra_module_of_step_0_names_the_final_snapshot(self, tmp_path):
        from deltaquant.container import save_container

        out = train_run(tmp_path, steps=200)
        base = load_container(out / "ckpt_step000000.dqt")
        base["layerX.weight"] = np.ones((8, 8), np.float32)
        save_container(base, out / "ckpt_step000000.dqt")
        csv = tmp_path / "curve.csv"
        res = run_cli("curve", "--run", out, "--out", csv)
        assert res.returncode == 1, res.stderr
        assert "module 'layerX' is missing from the step-200 checkpoint" in res.stderr
        assert not csv.exists()

    def test_stray_snapshot_name_is_usage_error(self, tmp_path):
        out = train_run(tmp_path, steps=100)
        (out / "ckpt_stepbak.dqt").write_bytes(b"not a container")
        csv = tmp_path / "curve.csv"
        res = run_cli("curve", "--run", out, "--out", csv)
        assert res.returncode == 2, res.stderr
        assert "ckpt_stepbak.dqt" in res.stderr
        assert not csv.exists()

    @pytest.mark.parametrize(
        "names, message",
        [(["ckpt_step000000.dqt", "calib.dqt"], "fewer than two ckpt_step*.dqt files"),
         (["ckpt_step000000.dqt", "ckpt_step000100.dqt"], "is missing calib.dqt")],
        ids=["one-snapshot", "no-calib"],
    )
    def test_incomplete_run_is_usage_error(self, tmp_path, names, message):
        run = tmp_path / "run"
        run.mkdir()
        for name in names:
            (run / name).write_bytes(b"not a container")  # the run is checked before any read
        out = tmp_path / "curve.csv"
        res = run_cli("curve", "--run", run, "--out", out)
        assert res.returncode == 2, res.stderr
        assert message in res.stderr
        assert not out.exists()

    def test_two_snapshots_of_one_step_is_usage_error(self, tmp_path):
        out = train_run(tmp_path, steps=100)
        assert (out / "ckpt_step000000.dqt").exists()
        # not a container either: the names alone must stop the run
        (out / "ckpt_step0.dqt").write_bytes(b"not a container")
        csv = tmp_path / "curve.csv"
        res = run_cli("curve", "--run", out, "--out", csv)
        assert res.returncode == 2, res.stderr
        assert "ckpt_step000000.dqt" in res.stderr and "ckpt_step0.dqt" in res.stderr
        assert not csv.exists()


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
        "text, message",
        [(None, "cannot read config file"), ("train.steps 120\n", ":1: expected 'key = value'")],
        ids=["missing-file", "line-without-equals"],
    )
    def test_unusable_config_file_is_usage_error(self, tmp_path, text, message):
        cfg = tmp_path / "dq.cfg"
        if text is not None:
            cfg.write_text(text)
        out = tmp_path / "x"
        res = run_cli("train-toy", "--config", cfg, "--out", out)
        assert res.returncode == 2, res.stderr
        assert message in res.stderr
        assert not out.exists()

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
    """Base arguments per command that exit 1 once run: the inputs fail to load,
    or train-toy's run overflows."""
    bad = tmp_path / "bad.dqt"
    bad.write_bytes(b"not a container")
    run = tmp_path / "run"
    run.mkdir()
    for name in ("ckpt_step000000.dqt", "ckpt_step000100.dqt", "calib.dqt"):
        (run / name).write_bytes(b"not a container")
    out = tmp_path / "out"
    return {
        # one step at this rate leaves weights whose calibration forward pass overflows
        "train-toy": ["train-toy", "--dims", "8,16,8", "--steps", "1", "--lr", "1e20",
                      "--out", out],
        "importance": ["importance", "--pre", bad, "--post", bad, "--out", out],
        "quantize": ["quantize", "--post", bad, "--importance", bad, "--calib", bad, "--out", out],
        "ablate": ["ablate", "--pre", bad, "--post", bad, "--calib", bad, "--out", out],
        "curve": ["curve", "--run", run, "--out", out],
    }


class TestValuesCheckedBeforeInputs:
    @pytest.mark.parametrize(
        "command,flag_args,config_line,config_flag",
        [
            ("train-toy", ["--steps", "0"], "train.batch_size = 0", "--batch-size"),
            ("importance", ["--y-min", "20"], "map.slices = 0", "--slices"),
            ("quantize", ["--bits", "5"], "search.grid_points = 1", "--grid-points"),
            ("ablate", ["--group-size", "0"], "map.zero_epsilon = nan", "--zero-epsilon"),
            ("curve", ["--alpha-hi", "-1"], "quant.group_size = x", "--group-size"),
            ("quantize", ["--max-calib-rows", "0"], "search.max_calib_rows = 0",
             "--max-calib-rows"),
            ("train-toy", ["--lr", "0"], "train.snapshot_every = 0", "--snapshot-every"),
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
    def test_help_default_is_the_dataclass_default(self, command, count, monkeypatch):
        monkeypatch.setenv("COLUMNS", "400")  # no wrapped help lines
        res = run_cli(command, "--help")
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


    def test_quantize_independent_of_blas_threads(self, tmp_path):
        # the loss products multiply by the in-major error untransposed; on odd
        # shapes big enough for OpenBLAS to thread, layer0 (199 inputs, 151
        # rows) takes the direct form and layer1 (97 inputs) the Gram form
        run = tmp_path / "run"
        for args in (
            ("train-toy", "--dims", "199,97,47", "--steps", "50", "--snapshot-every", "50",
             "--calib-rows", "151", "--out", run),
            ("importance", "--pre", run / "ckpt_step000000.dqt",
             "--post", run / "ckpt_step000050.dqt", "--out", tmp_path / "imp.dqt"),
        ):
            res = run_cli(*args)
            assert res.returncode == 0, res.stderr
        outs = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            art = tmp_path / f"threads_{threads or 'default'}.dqt"
            res = subprocess.run(
                CLI + [str(a) for a in (
                    "quantize", "--post", run / "ckpt_step000050.dqt",
                    "--importance", tmp_path / "imp.dqt", "--calib", run / "calib.dqt",
                    "--group-size", "32", "--out", art)],
                capture_output=True, text=True, env=env,
            )
            assert res.returncode == 0, res.stderr
            outs.append((art.read_bytes(), art.with_suffix(".report.jsonl").read_bytes()))
        assert outs[0] == outs[1]


def _tensor_bytes(path):
    """Every tensor of a container, by name; the meta text is left out."""
    tmap = load_container(path)
    return {name: tmap[name].tobytes() for name in tmap.names()}


def _value_options(command):
    """Flags of ``command`` that set a value: neither ``--config`` nor a path."""
    return {
        opt.flag for opt in cli._COMMANDS[command][2]
        if opt.key is not None and not opt.key.startswith("io.")
    }


@pytest.fixture(scope="module")
def audit_run(tmp_path_factory):
    """An 8-16-8 toy run and its default importance container, made in process."""
    base = tmp_path_factory.mktemp("audit")
    run = base / "run"
    assert cli.main(["train-toy", "--dims", "8,16,8", "--steps", "300", "--seed", "7",
                     "--data-seed", "3", "--snapshot-every", "100", "--out", str(run)]) == 0
    imp = base / "imp.dqt"
    assert cli.main(["importance", "--pre", str(run / "ckpt_step000000.dqt"),
                     "--post", str(run / "ckpt_step000300.dqt"), "--out", str(imp)]) == 0
    return base, run, imp


class TestEveryOptionReachesAnOutput:
    """Each value option, set alone to a value other than its default, changes
    an output byte that its meta echo does not account for."""

    def test_importance(self, audit_run):
        # toy training moves every weight; the zero-update count, which --slices
        # divides, needs updates that fine-tuning left at zero, as here in layer1
        from deltaquant.container import save_container

        base, run, _ = audit_run
        pre = load_container(run / "ckpt_step000000.dqt")
        post = load_container(run / "ckpt_step000300.dqt")
        post["layer1.weight"][::2] = pre["layer1.weight"][::2]
        sparse = base / "post_sparse.dqt"
        save_container(post, sparse)
        changes = {
            "--signal": "magnitude", "--y-min": "2", "--y-max": "20",
            "--zero-epsilon": "0.001", "--slices": "2", "--multiply-activation": None,
        }
        assert set(changes) == _value_options("importance")

        def scores(*args):
            out = base / "imp_audit.dqt"
            assert cli.main(["importance", "--pre", str(run / "ckpt_step000000.dqt"),
                             "--post", str(sparse), "--calib", str(run / "calib.dqt"),
                             "--out", str(out), *args]) == 0
            return _tensor_bytes(out)

        default = scores()
        for flag, value in changes.items():
            assert scores(flag, *([] if value is None else [value])) != default, flag

    def test_quantize(self, audit_run):
        base, run, imp = audit_run
        changes = {
            "--bits": "4", "--group-size": "4", "--protect": "0.25", "--grid-points": "5",
            "--alpha-lo": "0.1", "--alpha-hi": "0.5", "--max-calib-rows": "16",
        }
        assert set(changes) == _value_options("quantize")

        def outputs(*args):
            art = base / "art_audit.dqt"
            assert cli.main(["quantize", "--post", str(run / "ckpt_step000300.dqt"),
                             "--importance", str(imp), "--calib", str(run / "calib.dqt"),
                             "--out", str(art), *args]) == 0
            module_lines = art.with_suffix(".report.jsonl").read_text().splitlines()[1:]
            return _tensor_bytes(art), module_lines

        default = outputs()
        for flag, value in changes.items():
            assert outputs(flag, value) != default, flag

    def test_train_toy(self, audit_run):
        base = audit_run[0]
        changes = {
            "--dims": "8,12,8", "--steps": "200", "--lr": "0.1", "--batch-size": "16",
            "--seed": "1", "--data-seed": "2", "--snapshot-every": "150", "--calib-rows": "64",
        }
        assert set(changes) == _value_options("train-toy")

        def files(*args):
            out = base / f"train{'_'.join(args)}"
            assert cli.main(["train-toy", "--out", str(out), *args]) == 0
            return {path.name: _tensor_bytes(path) for path in sorted(out.iterdir())}

        default = files()
        for flag, value in changes.items():
            assert files(flag, value) != default, flag
