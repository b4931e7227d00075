"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
line per criterion. Every tolerance is pinned here, not configurable.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from cli_runner import run_cli
from deltaquant.container import TensorMap
from deltaquant.evaluate import ablate_signals
from deltaquant.quant import (
    QuantConfig,
    dequantize,
    pack_codes,
    rtn_quantize,
    unpack_codes,
)
from deltaquant.search import ModuleLoss, SearchConfig, quant_loss, search_scale
from deltaquant.signals import DeltaStats, MappingConfig, global_delta_stats, importances
from deltaquant.toy import TrainConfig, forward, init_model, model_from_map, train
from gradient_check import finite_diff_check
from signals_oracle import loop_importance

def _report(n: int, description: str):
    print(f"[PASS] criterion {n}: {description}")


# --------------------------------------------------------------------------
# 1. mapping endpoint suite
# --------------------------------------------------------------------------


def _mapped(signal, deltas, stats, cfg):
    """Each update's ``signal`` score: the importance of a one-row [1, k] matrix."""
    row = np.reshape(np.asarray(deltas, dtype=np.float64), (1, -1))
    return importances("m", row, [(dataclasses.replace(cfg, signal=signal), stats)])[0]


def test_criterion_1_mapping_endpoints():
    cfg = MappingConfig()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        min_pos = float(rng.uniform(1e-4, 0.3))
        mid = min_pos + float(rng.uniform(0.05, 1.5))
        hi = mid + float(rng.uniform(0.05, 2.5))
        stats = DeltaStats(min_pos, mid, hi, zero_count=int(rng.integers(0, 5)))

        ends = _mapped("both_ends_zero", [0.0, mid, min_pos, hi], stats, cfg)
        at_zero, at_mid, at_min, at_hi = ends
        # a zero update maps to y_min and also counts as a zero: y_min * (1 + 1)
        assert abs(at_zero - 2 * cfg.y_min) < 1e-9
        assert abs(at_mid - cfg.y_min) < 1e-9
        assert abs(at_min - cfg.y_max) < 1e-9
        assert abs(at_hi - cfg.y_max) < 1e-9

        left = np.linspace(min_pos, mid, 1000)
        right = np.linspace(mid, hi, 1000)
        assert (np.diff(_mapped("both_ends_zero", left, stats, cfg)) < 0).all()
        assert (np.diff(_mapped("both_ends_zero", right, stats, cfg)) > 0).all()

        probe = rng.uniform(0.0, hi, size=1000)
        total = _mapped("mid", probe, stats, cfg) + _mapped("both_ends", probe, stats, cfg)
        assert np.abs(total - (cfg.y_min + cfg.y_max)).max() < 1e-9
    _report(1, "both-ends-zero endpoints, branch monotonicity, reflection identity")


# --------------------------------------------------------------------------
# 2. zero-count importance equals a double-loop oracle
# --------------------------------------------------------------------------


def test_criterion_2_importance_oracle_equivalence():
    rng = np.random.default_rng(2002)
    for trial in range(50):
        delta = rng.uniform(0, 1, size=(8, 8))
        delta[rng.uniform(size=(8, 8)) < 0.35] = 0.0
        if not delta.any():
            delta[0, 0] = 0.4
        delta = delta.astype(np.float32).astype(np.float64)
        stats = global_delta_stats(TensorMap({"m.weight": delta.astype(np.float32)}))
        for slices in (1, 2, 4):
            cfg = MappingConfig(slices=slices)
            got = importances("m", delta, [(cfg, stats)])[0]
            want = loop_importance(delta, stats, cfg)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()
        # every positive update clamps to the median of these anchors and maps
        # to y_min = 1 exactly, so each score is the channel's zero count + 1
        flat = DeltaStats(5e-31, 1e-30, 1e-30, zero_count=0)
        raw = importances("m", delta, [(MappingConfig(), flat)])[0] - 1.0
        exhaustive = [sum(1 for r in range(8) if delta[r, c] == 0) for c in range(8)]
        assert raw.tolist() == exhaustive
    _report(2, "zero-count importance matches double-loop oracle, slices in {1,2,4}")


# --------------------------------------------------------------------------
# 3. RTN half-step bound, exact idempotence, constant groups
# --------------------------------------------------------------------------


def test_criterion_3_rtn_correctness():
    rng = np.random.default_rng(3003)
    for bits in (3, 4):
        for group_size in (4, 128):
            w = (rng.standard_normal((400, 250)) * rng.uniform(0.05, 4.0)).astype(np.float32)
            w[:40] = np.abs(w[:40])  # same-sign groups
            w[40:60] = -np.abs(w[40:60])
            w[60, :] = 0.75  # constant rows
            w[61, :] = 0.0
            assert w.size == 100_000
            cfg = QuantConfig(bits=bits, group_size=group_size)
            q = rtn_quantize(w, cfg)
            recon = dequantize(q)
            err = np.abs(recon - w)
            for g, c0 in enumerate(range(0, w.shape[1], group_size)):
                cols = slice(c0, min(c0 + group_size, w.shape[1]))
                bound = np.abs(q.scales[:, g : g + 1]) / 2 + 1e-6
                assert (err[:, cols] <= bound).all()
            assert np.array_equal(recon[60], w[60])  # constant rows exact
            assert np.array_equal(recon[61], w[61])
            q2 = rtn_quantize(recon, cfg)
            assert np.array_equal(q.codes, q2.codes)
            assert np.array_equal(q.scales, q2.scales)
            assert np.array_equal(q.zero_points, q2.zero_points)
    _report(3, "half-step bound at 1e5 weights, exact idempotence, exact constants")


# --------------------------------------------------------------------------
# 4. packing bijection
# --------------------------------------------------------------------------


def test_criterion_4_packing_bijection():
    rng = np.random.default_rng(4004)
    for bits in (3, 4):
        for _ in range(1000):
            n = int(rng.integers(1, 100))
            codes = rng.integers(0, 2**bits, size=n).astype(np.uint8)
            assert np.array_equal(unpack_codes(pack_codes(codes, bits), n, bits), codes)
    assert pack_codes(np.array([0x3, 0xA], np.uint8), 4).tolist() == [0xA3]
    word = 0
    for k, code in enumerate([1, 2, 3, 4, 5, 6, 7, 0]):
        word |= code << (3 * k)
    expected = [word & 0xFF, (word >> 8) & 0xFF, (word >> 16) & 0xFF]
    assert pack_codes(np.array([1, 2, 3, 4, 5, 6, 7, 0], np.uint8), 3).tolist() == expected
    _report(4, "pack/unpack bijection for 1000 vectors per width plus worked bytes")


# --------------------------------------------------------------------------
# 5. search optimality, never-worse, rescaling invariance
# --------------------------------------------------------------------------


def test_criterion_5_search_optimality():
    qcfg = QuantConfig(bits=3, group_size=4)
    scfg = SearchConfig()
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        w = rng.standard_normal((8, 8)).astype(np.float32)
        x = rng.standard_normal((16, 8)).astype(np.float32)
        scores = np.exp(rng.uniform(-1.0, 2.0, 8))
        res = search_scale(ModuleLoss(w, x), scores, scfg, qcfg)

        base = scores / np.sqrt(scores.max() * scores.min())
        best_alpha, best_loss = None, np.inf
        for alpha in scfg.alphas():
            loss = quant_loss(w, x, (base**alpha).astype(np.float32), qcfg)
            if loss < best_loss:
                best_alpha, best_loss = alpha, loss
        assert res.alpha_star == best_alpha
        assert res.best_loss == best_loss
        assert res.best_loss <= res.rtn_loss + 1e-9

        for factor in (0.25, 4.0, 1024.0):  # exact float rescalings
            res2 = search_scale(ModuleLoss(w, x), scores * factor, scfg, qcfg)
            assert res2.alpha_star == res.alpha_star
            assert np.array_equal(res2.scale, res.scale)
    _report(5, "grid argmin matches re-evaluation, never-worse, rescaling invariance")


# --------------------------------------------------------------------------
# 6. protection monotonicity on the trained toy model
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_toy():
    model = init_model([8, 16, 8], seed=7)
    _, snaps = train(model, TrainConfig(steps=500, data_seed=3, snapshot_every=100))
    post = snaps[-1][1]
    batch = np.random.default_rng((3, 101)).standard_normal((256, 8), dtype=np.float32)
    _, calib = forward(model_from_map(post), batch)
    return snaps, post, calib


def test_criterion_6_protection_monotonic(trained_toy):
    snaps, post, calib = trained_toy
    fractions = [0.0, 0.05, 0.3, 1.0]
    rows = ablate_signals(
        snaps[0][1], post, calib, [MappingConfig()], fractions,
        QuantConfig(bits=3, group_size=4),
    )
    for module in rows[0].per_module:
        series = [row.per_module[module] for row in rows]
        for tighter, looser in zip(series[1:], series[:-1]):
            assert tighter <= looser + 1e-12
        assert series[-1] == 0.0
    _report(6, "per-module MSE non-increasing over fractions {0, 0.05, 0.3, 1}, zero at 1")


# --------------------------------------------------------------------------
# 7. end-to-end CLI pipeline, 3-bit and 4-bit
# --------------------------------------------------------------------------


def _pipeline(tmp_path, tag, bits):
    run = tmp_path / f"run_{tag}"
    imp = tmp_path / f"imp_{tag}.dqt"
    art = tmp_path / f"art_{tag}.dqt"
    rep = tmp_path / f"report_{tag}.jsonl"
    ev = tmp_path / f"eval_{tag}.json"
    for args in (
        ("train-toy", "--dims", "8,16,8", "--steps", "500", "--seed", "7",
         "--data-seed", "3", "--snapshot-every", "100", "--out", run),
        ("importance", "--pre", run / "ckpt_step000000.dqt",
         "--post", run / "ckpt_step000500.dqt", "--signal", "both-ends-zero",
         "--out", imp),
        ("quantize", "--post", run / "ckpt_step000500.dqt", "--importance", imp,
         "--calib", run / "calib.dqt", "--bits", bits, "--group-size", "4",
         "--out", art, "--report", rep),
        ("eval", "--post", run / "ckpt_step000500.dqt", "--artifact", art,
         "--calib", run / "calib.dqt", "--out", ev),
    ):
        res = run_cli(*args)
        assert res.returncode == 0, f"{args}: {res.stderr}"
    return run, imp, art, rep, ev


def test_criterion_7_end_to_end_pipeline(tmp_path):
    _, _, _, rep3, ev3 = _pipeline(tmp_path, "b3", bits=3)
    report3 = json.loads(ev3.read_text())
    search3 = {
        json.loads(l)["module"]: json.loads(l)
        for l in rep3.read_text().strip().split("\n")[1:]
    }
    for module, stats in report3["per_module"].items():
        assert stats["searched_mse"] <= stats["rtn_mse"]
        assert abs(stats["rtn_mse"] - search3[module]["rtn_loss"]) < 1e-9

    _, _, _, _, ev4 = _pipeline(tmp_path, "b4", bits=4)
    report4 = json.loads(ev4.read_text())
    for module, stats4 in report4["per_module"].items():
        stats3 = report3["per_module"][module]
        for key in ("rtn_mse", "searched_mse", "protected_mse"):
            assert stats4[key] <= stats3[key]
    _report(7, "CLI train/importance/quantize/eval; searched<=rtn; 4-bit <= 3-bit")


# --------------------------------------------------------------------------
# 8. gradient check
# --------------------------------------------------------------------------


def test_criterion_8_gradient_check():
    model = init_model([6, 10, 4], seed=11)
    rng = np.random.default_rng(88)
    x = rng.standard_normal((32, 6)).astype(np.float32)
    t = rng.standard_normal((32, 4)).astype(np.float32)
    report = finite_diff_check(model, x, t)
    assert report.num_checked >= 50
    assert report.passed, report
    _report(8, f"finite differences agree (max rel err {report.max_rel_error:.2e})")


# --------------------------------------------------------------------------
# 9. pseudo-fine-tuning curve
# --------------------------------------------------------------------------


def test_criterion_9_pseudo_ft_curve(tmp_path):
    run = tmp_path / "run"
    csv = tmp_path / "curve.csv"
    for args in (
        ("train-toy", "--dims", "8,16,8", "--steps", "500", "--seed", "7",
         "--data-seed", "3", "--snapshot-every", "100", "--out", run),
        ("curve", "--run", run, "--bits", "3", "--group-size", "4", "--out", csv),
    ):
        res = run_cli(*args)
        assert res.returncode == 0, f"{args}: {res.stderr}"
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "step,mean_loss,slope"
    steps, slopes = [], set()
    for line in lines[1:]:
        step, loss, slope = line.split(",")
        steps.append(int(step))
        assert math.isfinite(float(loss))
        slopes.add(slope)
    assert steps == [100, 200, 300, 400, 500]
    assert len(steps) >= 5
    assert len(slopes) == 1 and math.isfinite(float(slopes.pop()))
    _report(9, "curve CSV complete over 5 snapshots with a reported slope")


# --------------------------------------------------------------------------
# 10. determinism across two identical runs
# --------------------------------------------------------------------------


def test_criterion_10_rerun_determinism(tmp_path):
    digests = {}
    for tag in ("a", "b"):
        base = tmp_path / f"rerun_{tag}"
        base.mkdir()
        run, imp, art, rep, ev = _pipeline(base, "t", bits=3)
        for args in (
            ("ablate", "--pre", run / "ckpt_step000000.dqt",
             "--post", run / "ckpt_step000500.dqt", "--calib", run / "calib.dqt",
             "--signals", "magnitude,both-ends-zero", "--fractions", "0.05,0.3,1.0",
             "--bits", "3", "--group-size", "4", "--out", base / "ablation.csv"),
            ("curve", "--run", run, "--bits", "3", "--group-size", "4",
             "--out", base / "curve.csv"),
        ):
            res = run_cli(*args)
            assert res.returncode == 0, f"{args}: {res.stderr}"
        digests[tag] = {
            p.relative_to(base).as_posix(): p.read_bytes()
            for p in sorted(base.rglob("*"))
            if p.is_file()
        }
    assert digests["a"] == digests["b"]
    _report(10, "two identical runs produce byte-identical outputs for criteria 6-9 runs")
