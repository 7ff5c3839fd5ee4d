"""Property tests for the binary template codec (repro.comm.frames).

The shm transport's control records carry ``pack_template(template)``
instead of a pickle, so the codec must be the identity on every template
``encode_frames`` can produce — and the object rebuilt from the unpacked
template and the raw frame bytes must equal what was sent, bit for bit,
including the types of the scalars that ride in the envelopes.
"""

from __future__ import annotations

import fractions

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.frames import (
    decode_frames,
    encode_frames,
    pack_template,
    unpack_template,
)
from repro.tensors import SparseRows

#: Every dtype a collective puts on the wire: gradients, ids, presence
#: masks, the adaptive path's packed blocks.
DTYPES = ["<f4", "<f8", "<f2", "<i4", "<i8", "|u1", "|b1", "<u8"]


@st.composite
def arrays(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    kind = draw(st.sampled_from(["0d", "empty", "1d", "2d", "column_slice"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)

    def fill(shape):
        if dtype == np.bool_:
            return rng.integers(0, 2, size=shape).astype(dtype)
        # Random bit patterns: NaN payloads, -0.0, int extremes included.
        count = int(np.prod(shape, dtype=np.int64))
        raw = rng.bytes(count * dtype.itemsize)
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    if kind == "0d":
        return fill(())
    if kind == "empty":
        return fill(draw(st.sampled_from([(0,), (0, 4), (3, 0)])))
    if kind == "1d":
        return fill((draw(st.integers(1, 9)),))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(2, 6))
    full = fill((rows, cols))
    if kind == "2d":
        return full
    lo = draw(st.integers(0, cols - 1))
    return full[:, lo : draw(st.integers(lo + 1, cols))]  # strided view


@st.composite
def sparse_rows(draw):
    num_rows = draw(st.integers(1, 12))
    n = draw(st.integers(0, 8))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):  # coalesced: sorted, unique
        idx = np.sort(rng.choice(num_rows, size=min(n, num_rows), replace=False))
        coalesced = True
    else:  # duplicates allowed
        idx = rng.integers(0, num_rows, size=n)
        coalesced = False
    vals = rng.standard_normal((len(idx), dim)).astype(
        draw(st.sampled_from([np.float32, np.float64]))
    )
    return SparseRows(idx, vals, num_rows, coalesced=coalesced)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 2**63, -(2**63) - 1, 2**200]),
    st.floats(allow_nan=False),
    st.text(max_size=12),
    st.sampled_from(["\ud800", b"raw", np.float32(1.5), np.int64(7)]),
    # an arbitrary picklable object: the genuine pickle fallback
    st.builds(fractions.Fraction, st.integers(-9, 9), st.integers(1, 9)),
)

payloads = st.recursive(
    st.one_of(arrays(), sparse_rows(), scalars),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), inner, max_size=3),
    ),
    max_leaves=10,
)


def assert_same(a, b) -> None:
    """Equality that also pins types, dtypes, shapes and bits."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, SparseRows):
        assert_same(a.indices, b.indices)
        assert_same(a.values, b.values)
        assert_same(a.num_rows, b.num_rows)
        assert a.coalesced is b.coalesced
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a) == list(b)  # order survives too
        for k in a:
            assert_same(a[k], b[k])
    else:
        assert a == b


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_pack_unpack_is_identity_on_templates(obj):
    template, _ = encode_frames(obj)
    assert unpack_template(pack_template(template)) == template


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_object_survives_the_wire(obj):
    """What the shm transport does: frames become packed bytes, the
    template becomes a record body, the receiver rebuilds from both."""
    template, frames = encode_frames(obj)
    buffers = [np.ascontiguousarray(f).tobytes() for f in frames]
    body = pack_template(template)
    for copy in (True, False):
        assert_same(decode_frames(unpack_template(body), buffers, copy=copy), obj)


@given(st.integers(0, 64), payloads)
@settings(max_examples=50, deadline=None)
def test_unpack_at_an_offset(pad, obj):
    """Records hold the template after a header and a frame table."""
    template, _ = encode_frames(obj)
    blob = bytes(pad) + pack_template(template) + b"trailing"
    assert unpack_template(blob, pad) == template
    assert unpack_template(memoryview(blob), pad) == template


def test_envelopes_never_touch_pickle(monkeypatch):
    """Fault-injector envelopes and service ops are ints, strings,
    tuples and arrays: nothing in them may fall back to pickle."""
    import repro.comm.frames as frames

    def boom(*a, **k):  # pragma: no cover - the failure path
        raise AssertionError("pickle on an array-only template")

    monkeypatch.setattr(frames.pickle, "dumps", boom)
    monkeypatch.setattr(frames.pickle, "loads", boom)
    shard = SparseRows([1, 3], np.ones((2, 2), np.float32), 8, coalesced=True)
    for obj in [
        (-1, (0, 17)),  # nested int tuples
        (5, (3, np.arange(4.0))),  # (seq, payload)
        (2, ("serve", "embedding", np.arange(3))),
        (9, [shard, None, True, 0.5]),
    ]:
        template, frames_ = encode_frames(obj)
        back = decode_frames(
            unpack_template(pack_template(template)),
            [np.ascontiguousarray(f).tobytes() for f in frames_],
        )
        assert_same(back, obj)
