"""Models are drawn straight into float32, with the bits of a float64
draw rounded once.

``build_model`` passes float32 down to every constructor, and each
initializer fills its array in row chunks of about 1 MB of doubles, so
no float64 copy of a table is alive while a model is built.
"""

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.models import build_model
from repro.models.config import ALL_MODELS, DLRM
from repro.nn import Embedding, init

#: sha256 over the sorted ``(name, dtype, bytes)`` of the initial
#: parameters of ``build_model(config.tiny(), rng=default_rng(1))``.
#: Pinned from the build that drew every parameter in float64 and
#: rounded the whole model afterwards.
TINY_DIGESTS = {
    "LM": "50216ee7a74a6160dac42a344fb8cc4a0e9d058dfcdac94c79017677a73bc179",
    "GNMT-8": "24255f48fdf5f727ba9ca3dec74934289e1a1174ce86f435734c31b1319f4b5c",
    "Transformer": "79926f94fa898607c7369585c4f11e25e5f3ee9c48d3ac66a4cf0a90d4543732",
    "BERT-base": "1d64562499ba0c293eb0acef3c052a0ee12c44bbe3e22addcacfc31ec2c45d40",
    "DLRM": "c212d0217fdfe7f8a5b94fe6c28231805fb1695e5837cc7acb221a5a35b7bc58",
}


def _digest(model) -> str:
    h = hashlib.sha256()
    for name, data in sorted(model.state_dict().items()):
        h.update(name.encode())
        h.update(str(data.dtype).encode())
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(TINY_DIGESTS))
def test_tiny_model_initial_parameters_are_pinned(name):
    model = build_model(ALL_MODELS[name].tiny(), rng=np.random.default_rng(1))
    assert {p.data.dtype for p in model.parameters()} == {np.dtype(np.float32)}
    assert _digest(model) == TINY_DIGESTS[name]


def test_build_peak_is_close_to_the_float32_parameters():
    """The benchmark's DLRM config: 20.5 MB of float32 tables.  Drawing
    in float64 and rounding the model afterwards peaked at ~2.1x."""
    config = replace(DLRM.scaled(vocab=20000, dim_divisor=2), batch_size_rtx3090=256)
    tracemalloc.start()
    try:
        model = build_model(config, rng=np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    nbytes = sum(p.data.nbytes for p in model.parameters())
    assert nbytes > 20_000_000
    assert peak <= 1.25 * nbytes


@pytest.mark.parametrize("rows", [1, 7, 20_000])
def test_float32_embedding_is_the_rounded_float64_draw(rows):
    """Several 1 MB chunks at 20,000 rows: the chunked draw consumes the
    generator stream exactly as one whole draw does."""
    dim = 32
    rng = np.random.default_rng(5)
    table = Embedding(rows, dim, rng=rng, dtype=np.float32)
    ref_rng = np.random.default_rng(5)
    want = ref_rng.normal(0.0, 0.02, (rows, dim)).astype(np.float32)
    assert table.weight.data.dtype == np.float32
    np.testing.assert_array_equal(table.weight.data, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_direct_embedding_keeps_float64():
    assert Embedding(4, 3).weight.data.dtype == np.float64


def test_drawn_uniform_matches_whole_draw():
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    got = init.xavier_uniform(rng, (9000, 40), dtype=np.float32)
    bound = np.sqrt(6.0 / (9000 + 40))
    want = ref.uniform(-bound, bound, (9000, 40)).astype(np.float32)
    np.testing.assert_array_equal(got, want)
