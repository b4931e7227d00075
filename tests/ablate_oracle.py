"""Row-by-row reference for the protection-signal ablation sweep.

Every (signal, fraction) row is built the direct way: importance is
recomputed per signal through ``importance_all``, each module's protected
tensor is decoded with ``dequantize``, its error against the float weight
is taken in float64, and the held-out batch runs through ``forward``.
``ablate_signals`` builds each row on its own as well, but shares the
per-checkpoint work: one importance pass for every signal, and one
quantize, dequantize and per-column error sum per module, from which a
row takes the protected float columns and zeroes their error sums under
the same mask, ``quant_oracle.select_protected``. Summing column errors is not taking
one mean over each error map, so the ablation tests compare its CSV with
this one byte for byte on every field except ``mse``, which they hold to
a relative bound of 1e-12 (an exact 0 stays 0).
"""

from dataclasses import replace

import numpy as np

from deltaquant.evaluate import AblationRow
from deltaquant.quant import dequantize, rtn_quantize
from deltaquant.signals import importance_all
from deltaquant.toy import forward, model_from_map
from quant_oracle import select_protected


def _heldout(post, seed, rows):
    model = model_from_map(post)
    batch = np.random.default_rng(seed).standard_normal((rows, model.in_dim), dtype=np.float32)
    ref, _ = forward(model, batch)
    return model, batch, ref


def ablate_oracle(pre, post, calib, signals, fractions, qcfg, *, heldout_seed, heldout_rows):
    """The ablation rows of ``ablate_signals``, one row at a time."""
    modules = post.modules("weight")
    plain = {m: rtn_quantize(post[f"{m}.weight"], qcfg) for m in modules}
    model, batch, ref = _heldout(post, heldout_seed, heldout_rows)
    rows = []
    for cfg_sig in signals:
        imps = importance_all(pre, post, cfg_sig, calib)
        for fraction in fractions:
            per_module, recon_full = {}, {}
            for module in modules:
                weight = post[f"{module}.weight"]
                mask = select_protected(imps[module], fraction)
                q = replace(plain[module], protected=mask, protected_values=weight[:, mask])
                recon = dequantize(q)
                recon_full[module] = recon
                diff = recon.astype(np.float64) - weight.astype(np.float64)
                per_module[module] = float(np.mean(diff * diff))
            layers = [replace(layer, weight=recon_full[layer.name]) for layer in model.layers]
            quant, _ = forward(replace(model, layers=layers), batch)
            diff = quant.astype(np.float64) - ref.astype(np.float64)
            rows.append(
                AblationRow(
                    signal=cfg_sig.signal,
                    fraction=float(fraction),
                    per_module=per_module,
                    mean_mse=float(np.mean([per_module[m] for m in modules])),
                    end_to_end_mse=float(np.mean(diff * diff)),
                )
            )
    return rows
