"""Scalar reference for the round-to-nearest group quantizer.

One value at a time in Python floats, mirroring the documented quantizer:
per row-group min/max extended to zero, scale rounded up onto the
19-bit-mantissa grid and floored at 2^-126 (stepped down one ulp while the
achieved code span cannot regenerate it and the floor allows), collapsed
groups stored in the canonical constant form, and a group whose decoded
values would overflow float32 rejected with ValueError. Shared by the
quantizer and loss tests as their oracle.
"""

import math

import numpy as np

MIN_SCALE = 2.0**-126
FLT_MAX = float(np.finfo(np.float32).max)


def _round19(value, up):
    m, e = math.frexp(value)
    step = 2.0**19
    m = (math.ceil(m * step) if up else math.floor(m * step)) / step
    return np.float32(max(math.ldexp(m, e), MIN_SCALE))


def _constant_group(value, width):
    """Canonical constant form: (codes, scale, zero point)."""
    value = np.float32(value)
    if value == 0:
        return [0] * width, np.float32(1.0), 0
    return [1] * width, value, 0


def quantize_group(grp, bits):
    """Codes, scale and zero point of one group of float32 values."""
    k = 2**bits - 1
    lo, hi = min(grp), max(grp)
    if hi == lo:
        return _constant_group(lo, len(grp))
    lo_e, hi_e = min(lo, 0.0), max(hi, 0.0)
    s = _round19((hi_e - lo_e) / k, up=True)
    for _ in range(64):
        z = int(min(max(round(-lo_e / float(s)), 0), k))
        codes = [int(min(max(round(v / float(s)) + z, 0), k)) for v in grp]
        cmax, cmin = max(codes), min(codes)
        if cmax == cmin or max(cmax - z, 0) + max(z - cmin, 0) == k or s == MIN_SCALE:
            break
        s = _round19(float(s) * (1 - 2.0**-20), up=False)
    if max(cmax - z, z - cmin) * float(s) > FLT_MAX:
        raise ValueError("a group of the weight decodes beyond the float32 range")
    if cmax == cmin:
        return _constant_group(np.float32(cmax - z) * s, len(grp))
    return codes, s, z


def rtn_oracle(weight, scale, bits, group_size):
    """(codes u8, scales f32, zero points u8) of ``rtn_quantize``, looped."""
    out_f, in_f = weight.shape
    n_groups = -(-in_f // group_size)
    codes = np.zeros((out_f, in_f), np.uint8)
    scales = np.zeros((out_f, n_groups), np.float32)
    zeros = np.zeros((out_f, n_groups), np.uint8)
    for r in range(out_f):
        for g in range(n_groups):
            cols = range(g * group_size, min((g + 1) * group_size, in_f))
            grp = [float(np.float32(weight[r, c] * np.float32(scale[c]))) for c in cols]
            group_codes, scales[r, g], zeros[r, g] = quantize_group(grp, bits)
            for c, code in zip(cols, group_codes):
                codes[r, c] = code
    return codes, scales, zeros


def oracle_reconstruct(weight, scale, bits, group_size):
    """Unscaled float32 reconstruction of the oracle's codes."""
    codes, scales, zeros = rtn_oracle(weight, scale, bits, group_size)
    recon = np.zeros_like(weight)
    for r in range(weight.shape[0]):
        for c in range(weight.shape[1]):
            g = c // group_size
            v = np.float32(np.float32(int(codes[r, c]) - int(zeros[r, g])) * scales[r, g])
            recon[r, c] = np.float32(v / np.float32(scale[c]))
    return recon
