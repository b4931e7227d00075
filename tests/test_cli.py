"""CLI subcommands: files, exit codes, config precedence, determinism."""

import collections
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cli_runner import CLI, run_cli
from deltaquant import cli
from deltaquant.container import checkpoint_modules, load_container
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

    def test_rerun_byte_identical(self, tmp_path):
        # into the same directory, whose snapshots the rerun overwrites
        out = train_run(tmp_path, steps=150)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        train_run(tmp_path, steps=150)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

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
        from deltaquant.container import checkpoint_modules, load_container

        tmap = load_container(imp)
        assert tmap.meta["y_min"] == "1.0"
        assert tmap.meta["y_max"] == "10.0"
        assert tmap.meta["signal"] == "both_ends_zero"
        assert sorted(tmap.names()) == ["layer0.importance", "layer1.importance"]

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
            f"error: tensor 'b.weight' has shape {list(shape)}; "
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
        assert not (tmp_path / "ablation.csv").exists()


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


    @pytest.mark.parametrize(
        "damage, message, searched",
        [
            ("nan", "tensor 'layer0.weight' contains non-finite values", 0),
            ("column-short", "shape mismatch for 'layer0.weight': (16, 8) vs (16, 7)", 2),
            ("missing-module", "missing tensor 'layer1.bias' in second map", 2),
        ],
    )
    def test_bad_middle_snapshot_names_its_step(
        self, tmp_path, monkeypatch, damage, message, searched
    ):
        from deltaquant import evaluate
        from deltaquant.container import TensorMap, save_container

        out = tmp_path / "run"
        res = run_cli("train-toy", "--dims", "8,16,8", "--steps", "40",
                      "--snapshot-every", "10", "--out", out)
        assert res.returncode == 0, res.stderr
        path = out / "ckpt_step000020.dqt"
        snap = load_container(path)
        if damage == "nan":
            snap["layer0.weight"][2, 3] = np.nan
        elif damage == "column-short":
            snap["layer0.weight"] = np.ascontiguousarray(snap["layer0.weight"][:, :7])
        else:
            snap = TensorMap({n: snap[n] for n in snap.names() if not n.startswith("layer1.")})
        save_container(snap, path)
        calls = collections.Counter()

        def counted(*args, _original=evaluate.search_scale):
            calls["search"] += 1
            return _original(*args)

        monkeypatch.setattr(evaluate, "search_scale", counted)
        csv = tmp_path / "curve.csv"
        res = run_cli("curve", "--run", out, "--group-size", "4", "--out", csv)
        assert res.returncode == 1, res.stderr
        assert res.stderr == f"error: step-20 checkpoint: {message}\n"
        # every snapshot is read before the first search; only the compatibility
        # check with step 0 comes after the searches of the steps before it
        assert calls["search"] == searched
        assert not csv.exists()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """An 8-16-8, 40-step toy run with snapshots at 0, 20 and 40, and its default
    importance container and 4-wide artifact, made in process."""
    base = tmp_path_factory.mktemp("small")
    run = base / "run"
    assert cli.main(["train-toy", "--dims", "8,16,8", "--steps", "40", "--snapshot-every", "20",
                     "--out", str(run)]) == 0
    pre, post = str(run / "ckpt_step000000.dqt"), str(run / "ckpt_step000040.dqt")
    assert cli.main(["importance", "--pre", pre, "--post", post,
                     "--out", str(base / "imp.dqt")]) == 0
    assert cli.main(["quantize", "--post", post, "--importance", str(base / "imp.dqt"),
                     "--calib", str(run / "calib.dqt"), "--group-size", "4",
                     "--out", str(base / "art.dqt")]) == 0
    return base


def _reading_args(base: Path, run: Path) -> dict[str, list]:
    """The input options of each command that reads a container, on ``small_run``'s files
    below ``base``, with the run directory at ``run``."""
    pre, post, calib = run / "ckpt_step000000.dqt", run / "ckpt_step000040.dqt", run / "calib.dqt"
    return {
        "importance": ["--pre", pre, "--post", post],
        "quantize": ["--post", post, "--importance", base / "imp.dqt", "--calib", calib,
                     "--group-size", "4"],
        "eval": ["--post", post, "--artifact", base / "art.dqt", "--calib", calib],
        "ablate": ["--pre", pre, "--post", post, "--calib", calib, "--group-size", "4"],
        "curve": ["--run", run, "--group-size", "4"],
    }


class TestEachCheckpointReadOnce:
    @pytest.mark.parametrize("command", ["importance", "quantize", "eval", "ablate", "curve"])
    def test_each_loaded_checkpoint_is_read_once(self, small_run, tmp_path, monkeypatch, command):
        loaded, reads = [], collections.Counter()

        def load(path, _original=cli.load_container):
            loaded.append((Path(path).name, _original(path)))
            return loaded[-1][1]

        def counted(tmap, _original=checkpoint_modules):
            reads[id(tmap)] += 1
            return _original(tmap)

        monkeypatch.setattr(cli, "load_container", load)
        readers = [module for name, module in sys.modules.items() if name.startswith("deltaquant")
                   and getattr(module, "checkpoint_modules", None) is checkpoint_modules]
        for module in readers:
            monkeypatch.setattr(module, "checkpoint_modules", counted)
        args = _reading_args(small_run, small_run / "run")[command]
        out = tmp_path / "out"
        assert cli.main([str(a) for a in [command, *args, "--out", out]]) == 0
        by_file = {name: reads[id(tmap)] for name, tmap in loaded}
        checkpoints = {name: 1 for name in by_file if name.startswith("ckpt_step")}
        assert {name: count for name, count in by_file.items() if count} == checkpoints
        # no map the command did not load was read either
        assert sum(reads.values()) == len(checkpoints)


class TestUnloadableInput:
    @pytest.mark.parametrize("command, victim", [
        ("importance", "run/ckpt_step000040.dqt"),
        ("quantize", "imp.dqt"),
        ("eval", "art.dqt"),
        ("ablate", "run/ckpt_step000000.dqt"),
        ("curve", "run/ckpt_step000020.dqt"),
    ])
    def test_truncated_input_names_its_path(self, small_run, tmp_path, command, victim):
        base = tmp_path / "in"
        shutil.copytree(small_run, base)
        path = base / victim
        os.truncate(path, 100)
        out = tmp_path / "out"
        res = run_cli(command, *_reading_args(base, base / "run")[command], "--out", out)
        assert res.returncode == 1, res.stderr
        assert res.stderr == (
            f"error: {path}: truncated header: declared length exceeds file size\n"
        )
        # quantize's report included
        assert [p.name for p in tmp_path.iterdir()] == ["in"]


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


class TestValuesCheckedBeforeInputs:
    @pytest.mark.parametrize("command,flag,value", [("ablate", "--signals", "")])
    def test_bad_list_value_is_usage_error(self, tmp_path, command, flag, value):
        # the inputs hold bytes no reader accepts: only an unchecked value reaches them
        bad = tmp_path / "bad.dqt"
        bad.write_bytes(b"not a container")
        base = [command, "--pre", bad, "--post", bad, "--calib", bad,
                "--out", tmp_path / "out.csv"]
        assert run_cli(*base).returncode == 1
        res = run_cli(*base, flag, value)
        assert res.returncode == 2, res.stderr
        assert flag in res.stderr

    @pytest.mark.parametrize(
        "command,flag,value",
        [("ablate", "--signal", "mid"), ("ablate", "--protect", "0.1"),
         ("curve", "--protect", "0.1")],
    )
    def test_flag_that_changes_no_output_is_unknown(self, command, flag, value):
        # ablate's signals come from --signals and its protection from --fractions;
        # curve reports search losses, which protection never changes; argparse
        # rejects the flag before the command asks for its required options
        res = run_cli(command, flag, value)
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
