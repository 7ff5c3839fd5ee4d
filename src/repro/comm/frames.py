"""Framed wire protocol: structure templates + raw ndarray payload frames.

A message is split into a small *template* describing its structure and a
list of *frames* — contiguous ndarray buffers holding the bulk payload.
The template replaces every array with a ``(frame index, dtype, shape)``
descriptor, so transports can move the frames as raw bytes (e.g. through
``multiprocessing.shared_memory`` segments) without ever pickling the
numeric payload; only the template travels through the control channel —
as a compact binary record (:func:`pack_template`), not a pickle.

Structured payloads decompose without intermediate copies:

* :class:`~repro.tensors.SparseRows` becomes two frames (indices, values)
  plus its scalar metadata in the template;
* tuples / lists / dicts recurse, so a tuple-of-arrays message such as
  ``(indices, values, num_rows)`` becomes multi-segment frames;
* anything else is embedded verbatim in the template (``("py", obj)``):
  ``None`` / bool / int / float / str get a native binary encoding,
  and only a genuinely foreign object falls back to pickle bytes.

Encoding is zero-copy: frames alias the caller's memory — including
strided views such as column slices — and are packed only at the byte
capture (segment write or pickle).  Transports that capture bytes
synchronously (the shared-memory path) can therefore send live views.
"""

from __future__ import annotations

import math
import pickle
import struct
from typing import Any

import numpy as np

from repro.tensors import SparseRows

#: Template node tags (kept two chars: templates travel on every message).
_ND = "nd"  # (_ND, (frame, dtype str, shape))
_SP = "sp"  # (_SP, idx descriptor, val descriptor, num_rows, coalesced)
_TU = "tu"  # (_TU, (node, ...))
_LI = "li"  # (_LI, [node, ...])
_DI = "di"  # (_DI, ((key, node), ...))
_PY = "py"  # (_PY, obj) — pickle fallback


def encode_frames(obj: Any) -> tuple[Any, list[np.ndarray]]:
    """Decompose ``obj`` into ``(template, frames)``.

    Frames are C-contiguous ndarrays that may alias ``obj``'s memory —
    transports that defer the byte capture must copy first.
    """
    frames: list[np.ndarray] = []
    return _encode(obj, frames), frames


def _encode(obj: Any, frames: list[np.ndarray]) -> Any:
    if isinstance(obj, np.ndarray):
        return (_ND, _frame(obj, frames))
    if isinstance(obj, SparseRows):
        idx = _frame(obj.indices, frames)
        val = _frame(obj.values, frames)
        return (_SP, idx, val, obj.num_rows, obj.coalesced)
    if isinstance(obj, tuple):
        return (_TU, tuple(_encode(x, frames) for x in obj))
    if isinstance(obj, list):
        return (_LI, [_encode(x, frames) for x in obj])
    if isinstance(obj, dict):
        return (_DI, tuple((k, _encode(v, frames)) for k, v in obj.items()))
    return (_PY, obj)


def _frame(arr: np.ndarray, frames: list[np.ndarray]) -> tuple:
    """Append ``arr`` as a frame; return its (frame, dtype, shape) descriptor.

    Frames may be strided views (e.g. a column slice of a gradient):
    the byte capture — :func:`~repro.comm.shm.fill_frames`
    or pickling — packs them, so the receiver always materializes from
    contiguous bytes.  Keeping the stride until capture fuses what would
    be a pack-then-copy into one gather.
    """
    frames.append(arr)
    return (len(frames) - 1, arr.dtype.str, arr.shape)


def ndarray_template(dtype: Any, shape: tuple) -> tuple:
    """Template of a single-ndarray message whose one frame is buffer 0.

    Lets transports emit an array they produced in place (e.g. a sum
    reduced directly into a shared-memory segment) without running the
    generic encoder.
    """
    return (_ND, (0, np.dtype(dtype).str, tuple(shape)))


def decode_frames(template: Any, buffers: list[Any], copy: bool = True) -> Any:
    """Rebuild the object from its template and raw frame buffers.

    ``buffers[i]`` is any buffer-like (memoryview, bytes, ndarray) holding
    exactly frame ``i``'s bytes.  With ``copy=True`` (the default) the
    result owns its memory — required when the buffers are pooled
    shared-memory segments that will be recycled.
    """
    return _decode(template, buffers, copy)


def _decode(node: Any, buffers: list[Any], copy: bool) -> Any:
    tag = node[0]
    if tag == _ND:
        return _materialize(node[1], buffers, copy)
    if tag == _SP:
        _, idx_desc, val_desc, num_rows, coalesced = node
        return SparseRows(
            _materialize(idx_desc, buffers, copy),
            _materialize(val_desc, buffers, copy),
            num_rows,
            coalesced=coalesced,
        )
    if tag == _TU:
        return tuple(_decode(x, buffers, copy) for x in node[1])
    if tag == _LI:
        return [_decode(x, buffers, copy) for x in node[1]]
    if tag == _DI:
        return {k: _decode(v, buffers, copy) for k, v in node[1]}
    if tag == _PY:
        return node[1]
    raise AssertionError(f"unknown template node {node!r}")


def _materialize(desc: tuple, buffers: list[Any], copy: bool) -> np.ndarray:
    i, dtype, shape = desc
    dt = np.dtype(dtype)
    n = math.prod(shape)
    if n == 0:
        return np.empty(shape, dtype=dt)
    arr = np.frombuffer(buffers[i], dtype=dt, count=n).reshape(shape)
    return arr.copy() if copy else arr


# --------------------------------------------------------------------- #
# binary template codec
# --------------------------------------------------------------------- #
# One tag byte per node, little-endian fixed-width fields after it.  The
# envelopes the layers above wrap around a payload — the fault
# injector's ``(seq, payload)``, the service's op tuples — are tuples of
# ints and strings around array nodes, so they pack and unpack without
# touching pickle.
_B_ND, _B_SP, _B_TU, _B_LI, _B_DI = 0, 1, 2, 3, 4
_B_NONE, _B_TRUE, _B_FALSE, _B_INT, _B_FLOAT, _B_STR, _B_PICKLE = 5, 6, 7, 8, 9, 10, 11

_U32 = struct.Struct("<I")
_TAG_U32 = struct.Struct("<BI")
_TAG_I64 = struct.Struct("<Bq")
_TAG_F64 = struct.Struct("<Bd")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def pack_template(template: Any) -> bytes:
    """Serialize a template produced by :func:`encode_frames`."""
    out = bytearray()
    _pack(template, out)
    return bytes(out)


def unpack_template(buf: Any, pos: int = 0) -> Any:
    """Inverse of :func:`pack_template`; ``buf`` is any bytes-like whose
    packed template starts at ``pos``."""
    return _unpack(buf, pos)[0]


def _pack(node: Any, out: bytearray) -> None:
    tag = node[0]
    if tag == _ND:
        out.append(_B_ND)
        _pack_desc(node[1], out)
    elif tag == _PY:
        _pack_py(node[1], out)
    elif tag == _TU or tag == _LI:
        out += _TAG_U32.pack(_B_TU if tag == _TU else _B_LI, len(node[1]))
        for child in node[1]:
            _pack(child, out)
    elif tag == _SP:
        out.append(_B_SP)
        _pack_desc(node[1], out)
        _pack_desc(node[2], out)
        _pack_py(node[3], out)
        _pack_py(node[4], out)
    elif tag == _DI:
        out += _TAG_U32.pack(_B_DI, len(node[1]))
        for key, child in node[1]:
            _pack_py(key, out)
            _pack(child, out)
    else:
        raise AssertionError(f"unknown template node {node!r}")


def _pack_desc(desc: tuple, out: bytearray) -> None:
    frame, dtype, shape = desc
    dt = dtype.encode("ascii")
    out += struct.pack(
        f"<IB{len(dt)}sB{len(shape)}q", frame, len(dt), dt, len(shape), *shape
    )


def _pack_py(obj: Any, out: bytearray) -> None:
    # Exact type checks: a bool is an int and np.float64 is a float, and
    # both must come back as what they were — those take the pickle path.
    kind = type(obj)
    if obj is None:
        out.append(_B_NONE)
    elif kind is bool:
        out.append(_B_TRUE if obj else _B_FALSE)
    elif kind is int and _INT64_MIN <= obj <= _INT64_MAX:
        out += _TAG_I64.pack(_B_INT, obj)
    elif kind is float:
        out += _TAG_F64.pack(_B_FLOAT, obj)
    elif kind is str:  # surrogatepass: lone surrogates round-trip too
        blob = obj.encode("utf-8", "surrogatepass")
        out += _TAG_U32.pack(_B_STR, len(blob))
        out += blob
    else:
        blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        out += _TAG_U32.pack(_B_PICKLE, len(blob))
        out += blob


def _unpack(buf: Any, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _B_ND:
        desc, pos = _unpack_desc(buf, pos)
        return (_ND, desc), pos
    if tag >= _B_NONE:
        obj, pos = _unpack_py(buf, pos - 1)
        return (_PY, obj), pos
    if tag == _B_TU or tag == _B_LI:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        children = []
        for _ in range(count):
            child, pos = _unpack(buf, pos)
            children.append(child)
        return ((_TU, tuple(children)) if tag == _B_TU else (_LI, children)), pos
    if tag == _B_SP:
        idx, pos = _unpack_desc(buf, pos)
        val, pos = _unpack_desc(buf, pos)
        num_rows, pos = _unpack_py(buf, pos)
        coalesced, pos = _unpack_py(buf, pos)
        return (_SP, idx, val, num_rows, coalesced), pos
    if tag == _B_DI:
        (count,) = _U32.unpack_from(buf, pos)
        pos += 4
        items = []
        for _ in range(count):
            key, pos = _unpack_py(buf, pos)
            child, pos = _unpack(buf, pos)
            items.append((key, child))
        return (_DI, tuple(items)), pos
    raise AssertionError(f"unknown template tag {tag}")


def _unpack_desc(buf: Any, pos: int) -> tuple[tuple, int]:
    frame, n = struct.unpack_from("<IB", buf, pos)
    pos += 5
    dtype = bytes(buf[pos : pos + n]).decode("ascii")
    ndim = buf[pos + n]
    pos += n + 1
    shape = struct.unpack_from(f"<{ndim}q", buf, pos)
    return (frame, dtype, shape), pos + 8 * ndim


def _unpack_py(buf: Any, pos: int) -> tuple[Any, int]:
    tag = buf[pos]
    pos += 1
    if tag == _B_NONE:
        return None, pos
    if tag == _B_TRUE:
        return True, pos
    if tag == _B_FALSE:
        return False, pos
    if tag == _B_INT:
        return _I64.unpack_from(buf, pos)[0], pos + 8
    if tag == _B_FLOAT:
        return _F64.unpack_from(buf, pos)[0], pos + 8
    (n,) = _U32.unpack_from(buf, pos)
    pos += 4
    blob = bytes(buf[pos : pos + n])
    if tag == _B_STR:
        return blob.decode("utf-8", "surrogatepass"), pos + n
    if tag == _B_PICKLE:
        return pickle.loads(blob), pos + n
    raise AssertionError(f"unknown scalar tag {tag}")
