"""Round-to-nearest group quantization, bit packing, and protection.

Weights are quantized per output row in groups of consecutive input
channels. Each group stores an unsigned code per weight plus one scale and
one zero-point; the quantization range is the group's min/max extended to
include zero so the zero-point always fits the unsigned code range.

One tile kernel codes every group, on ``[groups, group_size, columns]``
tiles of the in-major (``[in, out]``) weight: the full groups first, then a
ragged last group, each tile at most ``_CHUNK_ELEMENTS`` weights. A group's
min and max then reduce over contiguous planes, and its scale and zero
point broadcast along the contiguous column axis. ``rtn_quantize`` runs the
kernel on tiles of ``weight.T`` and stores codes and tables in row-major
order; ``candidate_errors`` runs it on batches of search candidates and
decodes each tile straight into their float64 in-major errors, with no
codes kept.
``dequantize`` decodes the same tiles in row-major order.

Two representation details keep quantize(dequantize(q)) an exact identity:
scales are rounded up onto a 19-bit-mantissa grid (so every code-times-
scale product is exact in float32), and groups whose codes collapse to a
single value are stored in a canonical constant form that reconstructs the
constant exactly.

Mixed precision: a bitmask marks protected input channels whose original
float32 columns are stored verbatim and restored bit-exactly on
dequantization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import TensorMap, check_finite, check_tensor, config_from_text

# scale mantissa width: 19 bits + 4-bit codes keeps products exact in f32
_SCALE_MANTISSA_BITS = 19
# smallest group scale, the smallest normal float32: a subnormal scale would
# lose mantissa bits, and a zero one divide by zero
_MIN_SCALE = 2.0**-126
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_MAX_RESCALE_ITERS = 64
# widths the artifact stores: 1 (protection mask), 3 and 4 (codes, zero points)
_PACK_WIDTHS = (1, 3, 4)
# weights per tile (a 1 MiB float64 code temporary; twice that for a tile of
# one full-width group, see _tiles)
_CHUNK_ELEMENTS = 1 << 17
# side of the square blocks a transposing copy moves at a time
_TRANSPOSE_BLOCK = 128


@dataclass(frozen=True)
class QuantConfig:
    bits: int = 3
    group_size: int = 128
    protect_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.bits not in (3, 4):
            raise ValueError("bits must be 3 or 4 (the packed artifact format)")
        if self.group_size < 1:
            raise ValueError("group_size must be >= 1")
        if not 0.0 <= self.protect_fraction <= 1.0:
            raise ValueError("protect_fraction must be in [0, 1]")


@dataclass
class QuantizedTensor:
    bits: int
    group_size: int
    codes: np.ndarray  # uint8 [out, in], one code per weight
    scales: np.ndarray  # float32 [out, n_groups]
    zero_points: np.ndarray  # uint8 [out, n_groups]
    channel_scale: np.ndarray  # float32 [in]
    protected: np.ndarray  # bool [in]
    protected_values: np.ndarray  # float32 [out, n_protected], unscaled

    def __post_init__(self) -> None:
        """Check that the group tables and protected columns fit the codes."""
        out_features, in_features = self.codes.shape
        tables = (out_features, -(-in_features // self.group_size))
        if self.scales.shape != tables or self.zero_points.shape != tables:
            raise ValueError(
                f"scales and zero points must be {list(tables)}, one column per "
                f"group of {self.group_size} of the {in_features} channels"
            )
        protected = (out_features, int(self.protected.sum()))
        if self.protected_values.shape != protected:
            raise ValueError(
                f"protected_values must be {list(protected)}, one column per protected channel"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape


def _round_scale(x: np.ndarray, rounding) -> np.ndarray:
    """Round positive values onto the reduced-mantissa grid with ``rounding``, at least 2^-126."""
    m, e = np.frexp(np.asarray(x, dtype=np.float64))
    step = 2.0 ** _SCALE_MANTISSA_BITS
    scale = np.ldexp(rounding(m * step) / step, e)
    # in place: one more table per tile left the heap 1.4 MiB higher over repeated passes
    return np.maximum(scale, _MIN_SCALE, out=scale)


def transposed(a: np.ndarray) -> np.ndarray:
    """C-contiguous copy of ``a.T``, copied by 128 x 128 blocks.

    A block of each side stays in cache, where numpy's copy of a whole
    transposed matrix walks one side a row apart: 1.1 ms against 1.5-4.0 ms
    per million float32 weights at 512 x 2048 and 2048 x 512, measured on
    a 2-core host.
    """
    rows, cols = a.shape
    out = np.empty((cols, rows), a.dtype)
    b = _TRANSPOSE_BLOCK
    for r in range(0, rows, b):
        for c in range(0, cols, b):
            out[c : c + b, r : r + b] = a[r : r + b, c : c + b].T
    return out


def _tiles(shape: tuple[int, int], group_size: int):
    """Yield (outs, ins, groups, width) tiles covering a [out, in] weight.

    ``ins`` is a range of whole groups of input channels of ``width`` each:
    the full groups first, then the ragged last group. A tile spans every
    output channel while one group of them holds at most twice
    ``_CHUNK_ELEMENTS`` weights, so that the in-major rows it reads and
    writes stay whole (a 2048-wide weight measured about 1.2x faster per
    candidate than in 1024-wide tiles), else as many as fit the budget (at
    least one); then as many groups as fit.
    """
    out_features, in_features = shape
    full = in_features - in_features % group_size
    for c0, c1, width in ((0, full, group_size), (full, in_features, in_features - full)):
        if c1 > c0:
            whole = width * out_features <= 2 * _CHUNK_ELEMENTS
            cols = out_features if whole else max(1, _CHUNK_ELEMENTS // width)
            step = width * max(1, _CHUNK_ELEMENTS // (width * cols))
            for i0 in range(c0, c1, step):
                ins = slice(i0, min(i0 + step, c1))
                groups = slice(i0 // group_size, -(-ins.stop // group_size))
                for o0 in range(0, out_features, cols):
                    yield slice(o0, o0 + cols), ins, groups, width


def _code_groups(
    values: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize a [groups, width, columns] tile, one group per (group, column) pair.

    Returns (steps f64 [groups, width, columns], scales f32 [groups,
    columns], zero_points f64 [groups, columns]): a weight's code is its
    step plus its group's zero point, and it decodes as step times scale.
    The scale is chosen so that re-quantizing the reconstruction reproduces
    codes, scales, and zero-points bit-exactly: the achieved code span must
    regenerate the stored scale, and when a double rounding leaves the span
    one short the scale is stepped down one grid ulp and the group re-coded.

    Coding ``clip(rint(v / s) + z, 0, k)`` is monotone in ``v``, so a
    group's largest and smallest codes are the codes of its max and min.
    The rescale loop therefore runs once per tile on [groups, columns]
    tables (a stable group keeps its scale while others step), and the
    steps are computed once, after it, from the final scales, as
    ``clip(rint(v / s), -z, k - z)``: the same integers minus ``z``.

    A non-finite value raises ValueError. Min and max propagate NaN and
    +-inf, so the tables are finite exactly when every value of the tile
    is, and only the tables are checked.

    Scales are at least ``_MIN_SCALE`` (2^-126), the smallest normal
    float32, so a code times a scale stays exact; a group at that floor
    cannot step down, and keeps its span below ``k``. A group whose largest
    decoded magnitude, code minus zero point times scale, would overflow
    float32 raises ValueError, so every stored scale is finite and every
    group decodes.
    """
    k = (1 << bits) - 1
    # the width axis is the middle one: each min and max combines whole
    # contiguous [columns] rows, not a short run per group
    lo = np.minimum.reduce(values, axis=1).astype(np.float64)
    hi = np.maximum.reduce(values, axis=1).astype(np.float64)
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("weight times channel_scale contains non-finite values")
    const = hi == lo
    lo_ext = np.minimum(lo, 0.0)
    hi_ext = np.maximum(hi, 0.0)
    spread = np.where(const, 1.0, (hi_ext - lo_ext) / k)
    scales = _round_scale(spread, np.ceil).astype(np.float32)

    for _ in range(_MAX_RESCALE_ITERS):
        s64 = scales.astype(np.float64)
        zeros = np.clip(np.rint(-lo_ext / s64), 0, k)
        top = np.rint(hi / s64) + zeros
        bottom = np.rint(lo / s64) + zeros
        cmax = np.clip(top, 0, k)
        cmin = np.clip(bottom, 0, k)
        span = np.maximum(cmax - zeros, 0) + np.maximum(zeros - cmin, 0)
        unstable = ~const & (cmax != cmin) & (span != k) & (s64 > _MIN_SCALE)
        if not unstable.any():
            break
        bumped = _round_scale(s64 * (1.0 - 2.0**-20), np.floor)
        scales = np.where(unstable, bumped, s64).astype(np.float32)
    # no code is more than k from its zero point: the exact test runs only
    # on tiles whose largest scale times k overflows
    if k * s64.max() > _FLOAT32_MAX:
        if (np.maximum(cmax - zeros, zeros - cmin) * s64 > _FLOAT32_MAX).any():
            raise ValueError("a group of the weight decodes beyond the float32 range")

    # steps of the last scales tried, in place in one float64 tile.
    # rint(v / s) is monotone in v, so a bound is applied only when the max
    # or min of a group that does not collapse crosses it (collapsed groups
    # are overwritten below)
    collapsed = const | (cmax == cmin)
    steps = values / s64[:, None]
    np.rint(steps, out=steps)
    if (bottom[~collapsed] < 0).any():
        np.maximum(steps, -zeros[:, None], out=steps)
    if (top[~collapsed] > k).any():
        np.minimum(steps, (k - zeros)[:, None], out=steps)

    # canonical constant form: reconstructs the group constant exactly
    if collapsed.any():
        value = np.where(
            const,
            lo.astype(np.float32),
            (cmax - zeros).astype(np.float32) * scales,
        ).astype(np.float32)
        is_zero = collapsed & (value == 0)
        nonzero = collapsed & (value != 0)
        scales = np.where(is_zero, np.float32(1.0), np.where(nonzero, value, scales))
        scales = scales.astype(np.float32)
        zeros = np.where(collapsed, 0, zeros)
        # code 1 (0 for a zero constant) at zero point 0
        np.copyto(steps, nonzero[:, None], where=collapsed[:, None])
    return steps, scales, zeros


def _coded_tiles(weight_t: np.ndarray, cfg: QuantConfig, cscale: np.ndarray | None):
    """Yield (outs, ins, groups, steps, scales, zeros) of every tile of a scaled in-major weight.

    ``weight_t`` is float32 [in, out]; ``cscale`` is a float32 [K, in]
    stack of channel scales, or None for one unscaled candidate. Each tile
    of ``weight_t`` is multiplied by the K scales in float32 and coded by
    ``_code_groups`` as one [K * groups, width, columns] stack.
    """
    in_features, out_features = weight_t.shape
    for outs, ins, groups, width in _tiles((out_features, in_features), cfg.group_size):
        block = weight_t[ins, outs]
        if cscale is None:  # x * 1 == x: an unscaled weight skips the multiply
            tile = block
        else:
            with np.errstate(over="ignore"):  # an overflow to inf is rejected per tile
                tile = block * cscale[:, ins, None]
        yield outs, ins, groups, *_code_groups(tile.reshape(-1, width, block.shape[1]), cfg.bits)


def _checked_channel_scale(channel_scale: np.ndarray, in_features: int) -> np.ndarray:
    """``channel_scale`` as float32, checked to hold ``in_features`` positive finite entries."""
    cscale = np.ascontiguousarray(channel_scale, dtype=np.float32)
    if cscale.shape != (in_features,):
        raise ValueError("channel_scale length must match in_features")
    if not np.isfinite(cscale).all() or (cscale <= 0).any():
        raise ValueError("channel_scale entries must be positive and finite")
    return cscale


def rtn_quantize(
    weight: np.ndarray,
    cfg: QuantConfig,
    *,
    channel_scale: np.ndarray | None = None,
    protected: np.ndarray | None = None,
) -> QuantizedTensor:
    """Round-to-nearest group quantization of one linear weight.

    ``channel_scale`` multiplies weight columns before quantization and is
    divided back out at dequantization. ``protected`` marks input channels
    whose original (unscaled) columns are kept in float32 and restored
    bit-exactly. A non-finite weight, or one whose product with
    ``channel_scale`` overflows float32, raises ValueError.
    """
    weight = np.ascontiguousarray(weight, dtype=np.float32)
    if weight.ndim != 2:
        raise ValueError("weight must be a [out, in] matrix")
    out_features, in_features = weight.shape

    if channel_scale is None:
        cscale = np.ones(in_features, dtype=np.float32)
    else:
        cscale = _checked_channel_scale(channel_scale, in_features)

    if protected is None:
        mask = np.zeros(in_features, dtype=bool)
    else:
        mask = np.ascontiguousarray(protected, dtype=bool)
        if mask.shape != (in_features,):
            raise ValueError("protected mask length must match in_features")

    n_groups = -(-in_features // cfg.group_size)
    codes = np.empty((out_features, in_features), dtype=np.uint8)
    scales = np.empty((out_features, n_groups), dtype=np.float32)
    zero_points = np.empty((out_features, n_groups), dtype=np.uint8)
    # tiles of the in-major view weight.T, stored through the same views of the outputs
    scale_stack = None if channel_scale is None else cscale[None]
    for outs, ins, groups, steps, tile_scales, zeros in _coded_tiles(weight.T, cfg, scale_stack):
        steps += zeros[:, None]
        codes.T[ins, outs] = steps.reshape(-1, steps.shape[2])
        scales.T[groups, outs] = tile_scales
        zero_points.T[groups, outs] = zeros

    return QuantizedTensor(
        bits=cfg.bits,
        group_size=cfg.group_size,
        codes=codes,
        scales=scales,
        zero_points=zero_points,
        channel_scale=cscale,
        protected=mask,
        protected_values=weight[:, mask].copy(),
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Reconstruct a float32 weight matrix from its quantized form.

    Unprotected channels decode as (code - zero_point) * group scale and
    are divided by the channel scale; protected channels are restored
    verbatim from the stored float32 columns.
    """
    recon = np.empty(q.codes.shape, dtype=np.float32)
    with np.errstate(over="ignore"):  # an overflow to inf is rejected below
        for outs, ins, groups, width in _tiles(q.codes.shape, q.group_size):
            codes = q.codes[outs, ins]
            # code minus zero point is a small integer, exact in float32, and
            # its product with a 19-bit-mantissa scale is exact unless it overflows
            diff = codes.reshape(len(codes), -1, width).astype(np.float32)
            diff -= q.zero_points[outs, groups, None]
            diff *= q.scales[outs, groups, None]
            recon[outs, ins] = diff.reshape(len(codes), -1)
        if (q.channel_scale != 1).any():  # x / 1 == x: an all-ones scale skips the division
            recon /= q.channel_scale
    recon[:, q.protected] = q.protected_values
    if not np.isfinite(recon).all():
        raise ValueError("dequantization produced non-finite values")
    return recon


def candidate_errors(weight_t: np.ndarray, cfg: QuantConfig, channel_scales: list | None):
    """Yield the in-major error ``recon - weight`` of round-to-nearest under each channel scale.

    ``weight_t`` is the float32 ``[in, out]`` transpose of a finite weight;
    every scale of ``channel_scales`` is checked before any is coded, and
    None yields the one unscaled error. Candidate k's error is the float64
    ``[in, out]`` ``dequantize(rtn_quantize(weight, cfg, channel_scale=s_k)).T - weight_t``
    bit for bit, made without codes or a row-major reconstruction.
    Candidates are coded in batches of ``_CHUNK_ELEMENTS // weight_t.size``
    (at least one), stacked on a leading axis, which spares small modules
    most of the fixed per-call cost; a stacked batch is one tile per group
    width. Batches run in order.
    """
    if channel_scales is None:
        yield from _batch_errors(weight_t, cfg, None)
        return
    checked = [_checked_channel_scale(s, len(weight_t)) for s in channel_scales]
    per_batch = max(1, _CHUNK_ELEMENTS // weight_t.size)
    for i in range(0, len(checked), per_batch):
        yield from _batch_errors(weight_t, cfg, np.stack(checked[i : i + per_batch]))


def _batch_errors(weight_t: np.ndarray, cfg: QuantConfig, cscale: np.ndarray | None) -> np.ndarray:
    """The float64 ``[K, in, out]`` errors of a batch of ``candidate_errors``.

    ``cscale`` stacks the K channel scales as float32 ``[K, in]``, or is None for
    the one unscaled candidate, which skips the multiply and the division.
    Each tile of all K candidates is scaled, coded, decoded and divided
    back in float32 exactly as ``rtn_quantize`` and ``dequantize`` do,
    then subtracted in float64. A scaled value or a decoded group outside
    the float32 range raises as soon as its tile is coded; a division that
    overflows raises only after every candidate is coded, so a product
    overflow wins over it.
    """
    err_t = np.empty((1 if cscale is None else len(cscale), *weight_t.shape), dtype=np.float64)
    finite = True
    for outs, ins, _, steps, scales, _ in _coded_tiles(weight_t, cfg, cscale):
        decoded = np.multiply(steps, scales[:, None], dtype=np.float32)
        if cscale is not None:
            with np.errstate(over="ignore"):  # an overflow to inf is rejected at the end
                decoded /= cscale[:, ins].reshape(-1, steps.shape[1], 1)
            finite = finite and bool(np.isfinite(decoded).all())
        # a float64 copy, then a float64 subtraction: faster than one mixed-type ufunc
        err = err_t[:, ins, outs]
        err[...] = decoded.reshape(err.shape)
        err -= weight_t[ins, outs]
    if not finite:
        raise ValueError("dequantization produced non-finite values")
    return err_t


def _block(bits: int) -> tuple[int, int]:
    """(values, bytes) of one packed block: the fewest values filling whole bytes."""
    if bits not in _PACK_WIDTHS:
        raise ValueError(f"packing supports bits in {_PACK_WIDTHS}")
    values = 8 // math.gcd(bits, 8)
    return values, values * bits // 8


def pack_codes(codes: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned ``bits``-wide values into bytes, LSB first.

    Value k occupies bits [bits*k, bits*k + bits) of a little-endian bit
    stream, padded with zero values to whole blocks of 8 / gcd(bits, 8)
    values: two per byte at width 4, eight per three bytes at width 3, eight
    per byte at width 1 (the protection mask).
    """
    per_block, block_bytes = _block(bits)
    flat = np.ascontiguousarray(codes, dtype=np.uint8).ravel()
    if flat.size and int(flat.max()) >= (1 << bits):
        raise ValueError(f"code out of range for {bits}-bit packing")
    blocks = np.zeros((-(-flat.size // per_block), per_block), dtype=np.uint8)
    blocks.reshape(-1)[: flat.size] = flat
    words = np.zeros(blocks.shape[0], dtype=np.uint32)
    for i in range(per_block):
        words |= np.left_shift(blocks[:, i], bits * i, dtype=np.uint32)
    out = np.empty((blocks.shape[0], block_bytes), dtype=np.uint8)
    for j in range(block_bytes):
        out[:, j] = (words >> (8 * j)) & 0xFF
    return out.ravel()


def unpack_codes(buf: np.ndarray, count: int, bits: int) -> np.ndarray:
    """Exact inverse of pack_codes, returning the first ``count`` values."""
    per_block, block_bytes = _block(bits)
    if count < 0:
        raise ValueError("count must be >= 0")
    buf = np.ascontiguousarray(buf, dtype=np.uint8).ravel()
    n_blocks = -(-count // per_block)
    if buf.size != n_blocks * block_bytes:
        raise ValueError(f"length mismatch: {buf.size} bytes for {count} {bits}-bit codes")
    chunks = buf.reshape(n_blocks, block_bytes)
    words = np.zeros(n_blocks, dtype=np.uint32)
    for j in range(block_bytes):
        words |= np.left_shift(chunks[:, j], 8 * j, dtype=np.uint32)
    out = np.empty((n_blocks, per_block), dtype=np.uint8)
    for i in range(per_block):
        out[:, i] = (words >> (bits * i)) & ((1 << bits) - 1)
    return out.ravel()[:count]


def protection_order(scores: np.ndarray) -> np.ndarray:
    """Channels from most to least important; ties break toward the lower index.

    ``protected_prefix`` marks a prefix of this order, so the masks of
    ascending fractions are nested.
    """
    return np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")


def protected_prefix(order: np.ndarray, fraction: float) -> np.ndarray:
    """Mark the first round(fraction * n) channels of an n-channel ``protection_order``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    mask = np.zeros(order.size, dtype=bool)
    mask[order[: int(round(fraction * order.size))]] = True
    return mask


def artifact_to_map(
    artifact: dict[str, QuantizedTensor], meta: dict[str, str] | None = None
) -> TensorMap:
    """Serialize quantized modules into a container map.

    Codes and zero points are packed at the artifact's code width, the
    protection mask at width 1; scales, channel scales and protected
    columns stay float32. The meta records one code width and group size,
    so every module must share them, and a ``meta`` value for either key
    must equal theirs.
    """
    if not artifact:
        raise ValueError("empty artifact")
    first = next(iter(artifact.values()))
    for module, q in artifact.items():
        if (q.bits, q.group_size) != (first.bits, first.group_size):
            raise ValueError(
                f"module {module!r} has bits {q.bits} and group_size {q.group_size}, "
                f"unlike the first module ({first.bits} and {first.group_size})"
            )
    meta = dict(meta or {})
    for key, value in (("bits", first.bits), ("group_size", first.group_size)):
        if meta.setdefault(key, str(value)) != str(value):
            raise ValueError(f"meta {key} {meta[key]!r} contradicts the modules' {key} {value}")
    tmap = TensorMap(meta=meta)
    for module in sorted(artifact):
        q = artifact[module]
        tmap[f"{module}.codes"] = pack_codes(q.codes, q.bits)
        tmap[f"{module}.zeros"] = pack_codes(q.zero_points, q.bits)
        tmap[f"{module}.protected"] = pack_codes(q.protected, 1)
        tmap[f"{module}.scales"] = q.scales.astype(np.float32)
        tmap[f"{module}.channel_scale"] = q.channel_scale.astype(np.float32)
        tmap[f"{module}.protected_values"] = q.protected_values.astype(np.float32)
    return tmap


def _unpack_field(tmap: TensorMap, module: str, field: str, count: int, bits: int) -> np.ndarray:
    """Decode the packed ``<module>.<field>`` stream, a 1-D uint8 tensor, of ``count`` values."""
    name = f"{module}.{field}"
    buf = check_tensor(tmap[name], name, 1, np.uint8)
    try:
        return unpack_codes(buf, count, bits)
    except ValueError as exc:
        raise ValueError(f"corrupt {field} of module {module!r}: {exc}") from exc


def artifact_from_map(tmap: TensorMap) -> dict[str, QuantizedTensor]:
    """Rebuild quantized modules from a container map.

    A missing, misshaped, non-finite or wrongly typed field, or fields of one
    module whose shapes disagree, raises ValueError naming the module or the tensor once.
    """
    keys = ("bits", "group_size")
    if any(key not in tmap.meta for key in keys):
        raise ValueError("artifact container is missing 'bits'/'group_size' meta")
    cfg = config_from_text(QuantConfig, {key: tmap.meta[key] for key in keys})
    artifact: dict[str, QuantizedTensor] = {}
    for module in tmap.modules("codes"):
        for field in ("zeros", "protected", "scales", "channel_scale", "protected_values"):
            if f"{module}.{field}" not in tmap:
                raise ValueError(f"module {module!r} is missing its {field} tensor")
        # the packed streams are checked as _unpack_field decodes them
        names = [f"{module}.{field}" for field in ("scales", "channel_scale", "protected_values")]
        scales, channel_scale, protected_values = (
            check_finite(check_tensor(tmap[name], name, ndim), name)
            for name, ndim in zip(names, (2, 1, 2))
        )
        if not (channel_scale > 0).all():
            raise ValueError(f"channel_scale of module {module!r} must be positive")
        out_features = scales.shape[0]
        in_features = channel_scale.shape[0]
        # the code count is derived from these two tables, so they are compared first
        groups = -(-in_features // cfg.group_size)
        if scales.shape[1] != groups:
            raise ValueError(
                f"scales of module {module!r} must have one column per group of "
                f"{cfg.group_size} of its {in_features} channels ({groups}), not {scales.shape[1]}"
            )
        codes = _unpack_field(tmap, module, "codes", out_features * in_features, cfg.bits)
        zeros = _unpack_field(tmap, module, "zeros", scales.size, cfg.bits)
        protected = _unpack_field(tmap, module, "protected", in_features, 1).astype(bool)
        try:
            artifact[module] = QuantizedTensor(
                bits=cfg.bits,
                group_size=cfg.group_size,
                codes=codes.reshape(out_features, in_features),
                scales=scales,
                zero_points=zeros.reshape(scales.shape),
                channel_scale=channel_scale,
                protected=protected,
                protected_values=protected_values,
            )
        except ValueError as exc:
            raise ValueError(f"module {module!r}: {exc}") from None
    if not artifact:
        raise ValueError("no quantized modules found in container")
    return artifact
