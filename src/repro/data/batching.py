"""Batch iterators: fixed batch size and Transformer-style token budgets."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.corpus import SyntheticCorpus, SyntheticPairCorpus
from repro.data.tokenizer import count_tokens, pad_batch
from repro.tensors.ops import unique_rows
from repro.utils.validation import check_positive


@dataclass
class Batch:
    """One training batch.

    ``inputs``/``targets`` are ``(batch, L)`` id arrays; for language
    modelling ``targets`` is ``inputs`` shifted left; for translation
    ``inputs`` is the source and ``targets`` the target sentence.
    ``token_ids`` is the union of ids the batch touches per embedding
    table — the quantity Algorithm 1 intersects between iterations.

    ``streams`` carries per-table raw id arrays for workloads whose
    tables are not derivable from ``inputs``/``targets`` (DLRM's many
    categorical tables), keyed by table name; the reserved
    ``"__dense__"`` key holds continuous input features.  When a table
    appears here, :func:`repro.schedule.vertical._table_ids` uses it
    instead of the NLP input/target convention.
    """

    inputs: np.ndarray
    targets: np.ndarray
    num_tokens: int
    token_ids: dict[str, np.ndarray] = field(default_factory=dict)
    streams: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]


class BatchIterator:
    """Endless monolingual LM batches of fixed ``batch_size``."""

    def __init__(self, corpus: SyntheticCorpus, batch_size: int, max_len: int | None = None):
        check_positive("batch_size", batch_size)
        self.corpus = corpus
        self.batch_size = int(batch_size)
        self.max_len = max_len

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        pad = self.corpus.vocab.pad_id
        ids, _ = pad_batch(self.corpus.sentences(self.batch_size), pad, self.max_len)
        inputs = ids[:, :-1]
        targets = ids[:, 1:]
        return Batch(
            inputs=inputs,
            targets=targets,
            num_tokens=count_tokens(targets, pad),
            token_ids={"embedding": unique_rows(inputs[inputs != pad])},
        )


class PairBatchIterator:
    """Endless translation batches of fixed ``batch_size``."""

    def __init__(
        self,
        corpus: SyntheticPairCorpus,
        batch_size: int,
        max_len: int | None = None,
    ):
        check_positive("batch_size", batch_size)
        self.corpus = corpus
        self.batch_size = int(batch_size)
        self.max_len = max_len

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        pairs = self.corpus.pairs(self.batch_size)
        src_pad = self.corpus.src.vocab.pad_id
        tgt_pad = self.corpus.tgt_vocab.pad_id
        src, _ = pad_batch([p[0] for p in pairs], src_pad, self.max_len)
        tgt, _ = pad_batch([p[1] for p in pairs], tgt_pad, self.max_len)
        return Batch(
            inputs=src,
            targets=tgt,
            num_tokens=count_tokens(tgt, tgt_pad),
            token_ids={
                "encoder_embedding": unique_rows(src[src != src_pad]),
                "decoder_embedding": unique_rows(tgt[tgt != tgt_pad]),
            },
        )


class DLRMBatchIterator:
    """Endless click-log batches for the DLRM config.

    Each sample draws ``src_seq_len`` Zipf-distributed categorical ids
    per table (the multi-hot degree; id 0 is reserved as padding, like
    the NLP vocabularies), plus dense features and a binary click label
    deterministically derived from the ids — so two ranks replaying the
    same seed see bit-identical batches.
    """

    def __init__(self, config, batch_size: int, seed: int = 0):
        from repro.data.zipf import ZipfSampler

        check_positive("batch_size", batch_size)
        self.config = config
        self.batch_size = int(batch_size)
        self.degree = int(config.src_seq_len)
        self.rng = np.random.default_rng(seed)
        self.samplers = {
            t.name: ZipfSampler(t.vocab_size - 1, exponent=config.zipf_exponent)
            for t in config.tables
        }

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        from repro.models.blocks import DLRM_DENSE_FEATURES

        streams: dict[str, np.ndarray] = {}
        token_ids: dict[str, np.ndarray] = {}
        acc = np.zeros(self.batch_size, dtype=np.int64)
        for t in self.config.tables:
            ids = 1 + self.samplers[t.name].sample(
                self.rng, (self.batch_size, self.degree)
            ).astype(np.int64)
            streams[t.name] = ids
            token_ids[t.name] = unique_rows(ids)
            acc += ids.sum(axis=1)
        streams["__dense__"] = self.rng.standard_normal(
            (self.batch_size, DLRM_DENSE_FEATURES)
        )
        # Click labels are a fixed function of the drawn ids: learnable
        # structure without any stored dataset.
        targets = ((acc % 5) < 2).astype(np.int64).reshape(-1, 1)
        inputs = np.concatenate(
            [streams[t.name] for t in self.config.tables], axis=1
        )
        return Batch(
            inputs=inputs,
            targets=targets,
            num_tokens=self.batch_size,
            token_ids=token_ids,
            streams=streams,
        )


class TokenBudgetBatcher:
    """Variable batch size bounded by max tokens per batch (Transformer, §5.2.2)."""

    def __init__(self, corpus: SyntheticPairCorpus, max_tokens: int, max_len: int | None = None):
        check_positive("max_tokens", max_tokens)
        self.corpus = corpus
        self.max_tokens = int(max_tokens)
        self.max_len = max_len

    def __iter__(self):
        return self

    def __next__(self) -> Batch:
        pairs: list[tuple[np.ndarray, np.ndarray]] = []
        tokens = 0
        widest = 0
        while True:
            src, tgt = self.corpus.pair()
            widest_if = max(widest, len(src), len(tgt))
            # Padded footprint if we add this pair.
            if pairs and widest_if * (len(pairs) + 1) > self.max_tokens:
                break
            pairs.append((src, tgt))
            widest = widest_if
            tokens += len(tgt)
            if tokens >= self.max_tokens:
                break
        src_pad = self.corpus.src.vocab.pad_id
        tgt_pad = self.corpus.tgt_vocab.pad_id
        src, _ = pad_batch([p[0] for p in pairs], src_pad, self.max_len)
        tgt, _ = pad_batch([p[1] for p in pairs], tgt_pad, self.max_len)
        return Batch(
            inputs=src,
            targets=tgt,
            num_tokens=count_tokens(tgt, tgt_pad),
            token_ids={
                "encoder_embedding": unique_rows(src[src != src_pad]),
                "decoder_embedding": unique_rows(tgt[tgt != tgt_pad]),
            },
        )
