"""Binary container for named float32/uint8 tensors (``.dqt`` files).

Layout: 4-byte magic ``DQTC``, u32 LE version (= 1), u64 LE header length,
a UTF-8 JSON header, then a data region starting at the first multiple of
64 at or past the header end. The header maps tensor names to
dtype/shape/offset/nbytes records (offsets relative to the data region,
each a multiple of 64) plus string-to-string metadata; other record keys
are ignored. Tensor records are serialized in lexicographic name order and
padding bytes are zero, so identical maps always produce identical files.

Rank-0, rank-1 and rank-2 tensors are supported and reload with their exact
shape (a rank-0 record's shape is ``[]``). Each is stored row-major
little-endian, written straight from its array with no staging copy.
float32 carries model weights and statistics; uint8 carries packed code
buffers, whose readers derive the number of values from other tensors' shapes.

``config_to_text``/``config_from_text`` give config dataclasses one text
form, for container metadata and command-line and config-file values.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

MAGIC = b"DQTC"
VERSION = 1
ALIGNMENT = 64

_DTYPE_TO_TAG = {np.dtype(np.float32): "f32", np.dtype(np.uint8): "u8"}
_TAG_TO_DTYPE = {"f32": np.dtype(np.float32), "u8": np.dtype(np.uint8)}


class ContainerError(Exception):
    """Malformed container file or invalid tensor map."""


class CompatibilityError(Exception):
    """Two tensor maps do not describe the same set of tensors."""


class TensorMap:
    """Named collection of dense tensors plus string metadata.

    ``entries`` maps names to numpy arrays (float32 or uint8, rank <= 2).
    """

    def __init__(
        self,
        entries: dict[str, np.ndarray] | None = None,
        meta: dict[str, str] | None = None,
    ) -> None:
        self.entries: dict[str, np.ndarray] = dict(entries or {})
        self.meta: dict[str, str] = dict(meta or {})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.entries[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.entries[name] = value

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return sorted(self.entries)

    def modules(self, field: str) -> list[str]:
        """Names ``m`` of the modules that have an ``<m>.<field>`` tensor, in chain
        order: by length, then by name, so ``layer2`` comes before ``layer10``."""
        suffix = f".{field}"
        names = (n[: -len(suffix)] for n in self.entries if n.endswith(suffix))
        return sorted(names, key=lambda m: (len(m), m))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TensorMap):
            return NotImplemented
        if self.meta != other.meta or set(self.entries) != set(other.entries):
            return False
        for name, arr in self.entries.items():
            brr = other.entries[name]
            if arr.dtype != brr.dtype or arr.shape != brr.shape:
                return False
            if arr.tobytes() != brr.tobytes():
                return False
        return True

    def __repr__(self) -> str:
        return f"TensorMap({len(self.entries)} tensors, meta={self.meta!r})"


def config_to_text(cfg) -> dict[str, str]:
    """Text of every field of a config dataclass: ``repr`` of floats,
    ``true``/``false`` for booleans, ``str`` of anything else."""
    out = {}
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        out[field.name] = repr(value) if isinstance(value, float) else str(value)
    return out


@functools.cache
def _field_types(cls) -> dict[str, type]:
    return typing.get_type_hints(cls)  # evaluates string annotations: slow, so cached


def config_from_text(cls, text: dict[str, str]):
    """Build the config dataclass ``cls`` from text in ``config_to_text`` form.

    A field missing from ``text`` keeps its default and keys that are not
    fields are ignored. Booleans also read 1/0, yes/no and on/off in any
    case. A value that does not parse as its field's type, or that ``cls``
    rejects, raises ValueError.
    """
    types = _field_types(cls)
    words = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}
    values = {}
    for field in fields(cls):
        if field.name not in text:
            continue
        raw = text[field.name].strip()
        kind = types[field.name]
        try:
            values[field.name] = words[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ValueError(f"{field.name} must be {kind.__name__}, got {raw!r}") from None
    return cls(**values)


def _align_up(n: int) -> int:
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _check_meta(meta) -> None:
    if not isinstance(meta, dict) or any(
        not isinstance(k, str) or not isinstance(v, str) for k, v in meta.items()
    ):
        raise ContainerError("meta must map strings to strings")


def _check_name(name) -> None:
    if not isinstance(name, str) or not name or not name.isascii():
        raise ContainerError(f"invalid tensor name {name!r}: must be non-empty ASCII")


def _validate_for_save(tmap: TensorMap) -> None:
    _check_meta(tmap.meta)
    for name, arr in tmap.entries.items():
        _check_name(name)
        if not isinstance(arr, np.ndarray):
            raise ContainerError(f"tensor {name!r} is not a numpy array")
        if arr.ndim > 2:
            raise ContainerError(f"tensor {name!r} has rank {arr.ndim}; rank <= 2 required")
        if arr.dtype not in _DTYPE_TO_TAG:
            raise ContainerError(f"tensor {name!r} has unsupported dtype {arr.dtype}")


def save_container(tmap: TensorMap, path: str | Path) -> None:
    """Write ``tmap`` to ``path`` in the container format.

    Deterministic: the same map always yields byte-identical files. Each
    tensor is written from its own row-major array; no staging copy is made.
    """
    _validate_for_save(tmap)
    arrays = {name: np.asarray(tmap.entries[name], order="C") for name in sorted(tmap.entries)}
    records: dict[str, dict] = {}
    offset = 0
    for name, arr in arrays.items():
        records[name] = {
            "dtype": _DTYPE_TO_TAG[arr.dtype],
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": arr.nbytes,
        }
        offset = _align_up(offset + arr.nbytes)
    header = json.dumps(
        {"meta": tmap.meta, "tensors": records},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")

    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<IQ", VERSION, len(header)) + header)
        for arr in arrays.values():
            # the data region and every offset in it start on an ALIGNMENT boundary
            f.write(b"\x00" * (-f.tell() % ALIGNMENT))
            f.write(arr)


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ContainerError(f"duplicate name {key!r} in header")
        out[key] = value
    return out


def load_container(path: str | Path) -> TensorMap:
    """Read a container file; a malformed header or data region raises ContainerError.

    Each tensor is read straight into its own array; no copy of the file is held.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(16)
        if len(head) < 16:
            raise ContainerError("truncated header: file shorter than 16 bytes")
        if head[:4] != MAGIC:
            raise ContainerError("bad magic: not a DQTC container")
        (version,) = struct.unpack("<I", head[4:8])
        if version != VERSION:
            raise ContainerError(f"unsupported version {version}")
        (header_len,) = struct.unpack("<Q", head[8:16])
        if 16 + header_len > size:
            raise ContainerError("truncated header: declared length exceeds file size")
        try:
            header = json.loads(
                f.read(header_len).decode("utf-8"), object_pairs_hook=_reject_duplicate_keys
            )
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep or too long
            raise ContainerError(f"malformed header JSON: {exc}") from exc

        if not isinstance(header, dict) or "meta" not in header or "tensors" not in header:
            raise ContainerError("header must contain 'meta' and 'tensors'")
        meta = header["meta"]
        tensors = header["tensors"]
        _check_meta(meta)
        if not isinstance(tensors, dict):
            raise ContainerError("tensor table must be a JSON object")

        data_start = _align_up(16 + header_len)
        tmap = TensorMap(meta=meta)
        for name in sorted(tensors):
            rec = tensors[name]
            _check_name(name)
            if not isinstance(rec, dict):
                raise ContainerError(f"tensor record for {name!r} must be an object")
            dtype_tag = rec.get("dtype")
            if dtype_tag not in _TAG_TO_DTYPE:
                raise ContainerError(f"tensor {name!r}: unsupported dtype {dtype_tag!r}")
            shape = rec.get("shape")
            if (
                not isinstance(shape, list)
                or len(shape) > 2
                # ``type(...) is int`` also rejects JSON true/false, which load as bools
                or any(type(d) is not int or d < 0 for d in shape)
            ):
                raise ContainerError(f"tensor {name!r}: invalid shape {shape!r}")
            offset = rec.get("offset")
            nbytes = rec.get("nbytes")
            if type(offset) is not int or type(nbytes) is not int or nbytes < 0:
                raise ContainerError(f"tensor {name!r}: invalid offset/nbytes")
            if offset < 0:
                raise ContainerError(f"tensor {name!r}: header/data overlap (negative offset)")
            if offset % ALIGNMENT != 0:
                raise ContainerError(
                    f"tensor {name!r}: offset {offset} not {ALIGNMENT}-byte aligned"
                )
            dtype = _TAG_TO_DTYPE[dtype_tag]
            expected = math.prod(shape) * dtype.itemsize
            if expected != nbytes:
                raise ContainerError(
                    f"tensor {name!r}: nbytes {nbytes} does not match shape {shape} ({expected})"
                )
            if data_start + offset + nbytes > size:
                raise ContainerError(f"truncated data: tensor {name!r} extends past end of file")
            buf = np.empty(nbytes, dtype=np.uint8)
            f.seek(data_start + offset)
            if f.readinto(buf) != nbytes:
                raise ContainerError(f"truncated data: file shrank while reading {name!r}")
            try:
                tmap.entries[name] = buf.view(dtype).reshape(shape)
            except ValueError as exc:  # a zero-size shape may still have a dimension numpy rejects
                raise ContainerError(f"tensor {name!r}: invalid shape {shape!r}") from exc
    region_end = 0
    for offset, nbytes, name in sorted((r["offset"], r["nbytes"], n) for n, r in tensors.items()):
        if nbytes and offset < region_end:
            raise ContainerError(f"tensor {name!r}: data overlaps another tensor")
        region_end = max(region_end, offset + nbytes)
    return tmap


def check_tensor(array: np.ndarray, name: str, ndim: int, dtype=np.float32) -> np.ndarray:
    """``array`` if it is an ``ndim``-D ``dtype`` tensor, else ValueError naming ``name``."""
    if array.dtype != dtype or array.ndim != ndim:
        raise ValueError(f"tensor {name!r} is {array.ndim}-D {array.dtype}, "
                         f"not {ndim}-D {np.dtype(dtype)}")
    return array


def check_finite(array: np.ndarray, name: str) -> np.ndarray:
    """``array`` if every value of it is finite, else ValueError naming ``name``."""
    # max and min carry a NaN, and two finite float32 values differ by a finite
    # float; Python floats give inf - inf without a warning, and no mask is allocated
    if array.size and not np.isfinite(float(array.max()) - float(array.min())):
        raise ValueError(f"tensor {name!r} contains non-finite values")
    return array


def check_weight(weight: np.ndarray, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``weight`` is a finite, non-empty float32 matrix."""
    check_finite(check_tensor(weight, name, 2), name)
    if not weight.size:
        raise ValueError(f"tensor {name!r} has shape {list(weight.shape)}; "
                         "it needs at least one row and one column")


def checkpoint_modules(tmap: TensorMap):
    """Yield ``(module, weight, bias)`` of each checkpoint module, in chain order, checked.

    The arrays are the map's own; a missing bias reads as float32 zeros. A map without a
    ``.weight`` tensor raises ValueError, and so does, naming the tensor, a weight that
    ``check_weight`` rejects or a bias that is not one finite float32 value per output
    channel; a 1-D bias of another length names the module and both shapes."""
    modules = tmap.modules("weight")
    if not modules:
        raise ValueError("checkpoint contains no '.weight' tensors")
    for module in modules:
        name, bias_name = f"{module}.weight", f"{module}.bias"
        weight = tmap[name]
        check_weight(weight, name)
        bias = tmap[bias_name] if bias_name in tmap else np.zeros(len(weight), np.float32)
        check_finite(check_tensor(bias, bias_name, 1), bias_name)
        if bias.shape != weight.shape[:1]:
            raise ValueError(f"module {module!r}: bias shape {list(bias.shape)} does not match "
                             f"weight shape {list(weight.shape)}")
        yield module, weight, bias


def check_compatible(a: TensorMap, b: TensorMap) -> None:
    """Verify that two maps are checkpoint-compatible.

    Compatibility means identical name sets, shapes, and dtypes. Raises
    CompatibilityError naming the first mismatch in sorted name order.
    """
    for name in sorted(set(a.entries) | set(b.entries)):
        if name not in a.entries:
            raise CompatibilityError(f"missing tensor {name!r} in first map")
        if name not in b.entries:
            raise CompatibilityError(f"missing tensor {name!r} in second map")
        ta, tb = a.entries[name], b.entries[name]
        if ta.shape != tb.shape:
            raise CompatibilityError(
                f"shape mismatch for {name!r}: {tuple(ta.shape)} vs {tuple(tb.shape)}"
            )
        if ta.dtype != tb.dtype:
            raise CompatibilityError(f"dtype mismatch for {name!r}: {ta.dtype} vs {tb.dtype}")
