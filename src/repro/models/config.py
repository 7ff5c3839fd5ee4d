"""Model configurations calibrated against the paper's Table 1.

The four paper-scale configs reproduce each model's total size, embedding
size and embedding ratio to within a few percent (asserted in
``tests/test_models.py`` and reported against Table 1 by
``benchmarks/bench_table1.py``):

=============  ==========  ===============  ========
model          size (MB)   embedding (MB)   ratio
=============  ==========  ===============  ========
LM             3186.5      3099.5           97.27 %
GNMT-8          739.1       252.5           34.16 %
Transformer    1067.5       263.4           24.67 %
BERT-base       417.7        89.4           21.42 %
=============  ==========  ===============  ========
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.comm.sparse import ids_dtype
from repro.utils.validation import check_in, check_positive


@dataclass(frozen=True)
class EmbeddingTableConfig:
    """One sparse embedding table: ``vocab_size x dim`` float32 rows."""

    name: str
    vocab_size: int
    dim: int

    def __post_init__(self) -> None:
        check_positive("vocab_size", self.vocab_size)
        check_positive("dim", self.dim)

    @property
    def param_count(self) -> int:
        return self.vocab_size * self.dim

    @property
    def nbytes(self) -> int:
        return self.param_count * 4

    @property
    def row_nbytes(self) -> int:
        """Wire size of one sparse gradient row: float32 values + the
        index in its wire type (:func:`~repro.comm.ids_dtype`)."""
        return self.dim * 4 + ids_dtype(self.vocab_size).itemsize


@dataclass(frozen=True)
class ModelConfig:
    """Structure + workload parameters for one benchmark model.

    ``family`` selects the block decomposition; the ``batch_*``/``seq_*``
    fields carry the per-cluster workload settings of §5.2.2; the
    ``zipf_exponent`` / ``sentence_len`` fields parameterize the synthetic
    data so batch statistics land near the paper's Table 3.
    """

    name: str
    family: str  # 'lm' | 'gnmt' | 'transformer' | 'bert' | 'dlrm'
    tables: tuple[EmbeddingTableConfig, ...]
    hidden_dim: int
    num_encoder_layers: int
    num_decoder_layers: int = 0
    ffn_dim: int = 0
    num_heads: int = 8
    # Workload (per-worker) settings, §5.2.2.
    batch_size_rtx3090: int = 128
    batch_size_rtx2080: int = 128
    max_tokens_rtx3090: int | None = None  # Transformer uses a token budget
    max_tokens_rtx2080: int | None = None
    src_seq_len: int = 32
    tgt_seq_len: int = 32
    # Synthetic-data statistics: Zipf tail exponent plus an optional
    # high-frequency head (see ZipfMixtureSampler).
    zipf_exponent: float = 1.1
    min_sentence_len: int = 8
    head_size: int | None = None
    head_mass: float = 0.4
    recurrence: float = 0.0
    buffer_size: int = 8192

    def __post_init__(self) -> None:
        check_in(
            "family", self.family, {"lm", "gnmt", "transformer", "bert", "dlrm"}
        )
        if not self.tables:
            raise ValueError(f"{self.name}: at least one embedding table required")
        check_positive("hidden_dim", self.hidden_dim)
        check_positive("num_encoder_layers", self.num_encoder_layers)

    # ------------------------------------------------------------------ #
    # Sizing
    # ------------------------------------------------------------------ #
    @property
    def embedding_param_count(self) -> int:
        return sum(t.param_count for t in self.tables)

    def table(self, name: str) -> EmbeddingTableConfig:
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(f"{self.name}: no table named {name!r}")

    # ------------------------------------------------------------------ #
    # Workload accessors
    # ------------------------------------------------------------------ #
    def batch_size(self, gpu: str) -> int:
        """Per-worker batch size for a cluster type ('rtx3090'|'rtx2080').

        For token-budget models (Transformer) this is the *derived*
        average sentence count: max_tokens / tgt_seq_len.
        """
        check_in("gpu", gpu, {"rtx3090", "rtx2080"})
        max_tokens = (
            self.max_tokens_rtx3090 if gpu == "rtx3090" else self.max_tokens_rtx2080
        )
        if max_tokens is not None:
            return max(1, max_tokens // self.tgt_seq_len)
        return self.batch_size_rtx3090 if gpu == "rtx3090" else self.batch_size_rtx2080

    def tokens_per_step(self, gpu: str) -> int:
        """Target (non-padding) tokens one worker consumes per step."""
        return self.batch_size(gpu) * self.tgt_seq_len

    # ------------------------------------------------------------------ #
    # Scaling
    # ------------------------------------------------------------------ #
    def scaled(self, vocab: int, dim_divisor: int, layers: int | None = None) -> "ModelConfig":
        """A structurally identical but smaller config (real-execution scale)."""
        check_positive("vocab", vocab)
        check_positive("dim_divisor", dim_divisor)
        tables = tuple(
            replace(t, vocab_size=vocab, dim=max(4, t.dim // dim_divisor))
            for t in self.tables
        )
        return replace(
            self,
            name=f"{self.name}-tiny",
            tables=tables,
            hidden_dim=max(8, self.hidden_dim // dim_divisor),
            ffn_dim=max(8, self.ffn_dim // dim_divisor) if self.ffn_dim else 0,
            num_heads=2,
            num_encoder_layers=layers or min(2, self.num_encoder_layers),
            num_decoder_layers=(
                (layers or min(2, self.num_decoder_layers)) if self.num_decoder_layers else 0
            ),
            batch_size_rtx3090=4,
            batch_size_rtx2080=4,
            max_tokens_rtx3090=None,
            max_tokens_rtx2080=None,
            src_seq_len=min(12, self.src_seq_len),
            tgt_seq_len=min(12, self.tgt_seq_len),
            min_sentence_len=4,
        )

    def tiny(self) -> "ModelConfig":
        """Default small config used by tests and real-execution runs."""
        return self.scaled(vocab=64, dim_divisor=64)


# ---------------------------------------------------------------------- #
# Paper-scale configurations (Table 1 calibration)
# ---------------------------------------------------------------------- #

#: Jozefowicz et al. big LSTM LM on LM1B: two huge tables (input lookup and
#: sampled-softmax output), small recurrent core.
LM = ModelConfig(
    name="LM",
    family="lm",
    tables=(
        EmbeddingTableConfig("embedding", vocab_size=793_471, dim=488),
        EmbeddingTableConfig("softmax_embedding", vocab_size=793_471, dim=488),
    ),
    hidden_dim=1250,
    num_encoder_layers=2,
    batch_size_rtx3090=128,
    batch_size_rtx2080=128,
    src_seq_len=24,
    tgt_seq_len=24,
    zipf_exponent=0.6,
    min_sentence_len=12,
    recurrence=0.6,
    buffer_size=4500,
)

#: GNMT-8 on WMT-16 En-De: 8+8 LSTM layers, BPE vocab both sides.
GNMT8 = ModelConfig(
    name="GNMT-8",
    family="gnmt",
    tables=(
        EmbeddingTableConfig("encoder_embedding", vocab_size=30_817, dim=1024),
        EmbeddingTableConfig("decoder_embedding", vocab_size=30_817, dim=1024),
    ),
    hidden_dim=855,
    num_encoder_layers=8,
    num_decoder_layers=8,
    batch_size_rtx3090=128,
    batch_size_rtx2080=32,
    src_seq_len=28,
    tgt_seq_len=30,
    zipf_exponent=0.65,
    min_sentence_len=8,
    recurrence=0.55,
    buffer_size=4000,
)

#: Transformer (big) on WMT-14 En-De.
TRANSFORMER = ModelConfig(
    name="Transformer",
    family="transformer",
    tables=(
        EmbeddingTableConfig("encoder_embedding", vocab_size=32_152, dim=1024),
        EmbeddingTableConfig("decoder_embedding", vocab_size=32_152, dim=1024),
    ),
    hidden_dim=1024,
    num_encoder_layers=6,
    num_decoder_layers=6,
    ffn_dim=4096,
    num_heads=16,
    max_tokens_rtx3090=5120,
    max_tokens_rtx2080=500,
    src_seq_len=28,
    tgt_seq_len=30,
    zipf_exponent=0.55,
    min_sentence_len=8,
    recurrence=0.65,
    buffer_size=5500,
)

#: BERT-base fine-tuned for SQuAD question answering.
BERT_BASE = ModelConfig(
    name="BERT-base",
    family="bert",
    tables=(EmbeddingTableConfig("embedding", vocab_size=30_522, dim=768),),
    hidden_dim=768,
    num_encoder_layers=12,
    ffn_dim=3072,
    num_heads=12,
    batch_size_rtx3090=32,
    batch_size_rtx2080=4,
    src_seq_len=384,
    tgt_seq_len=384,
    zipf_exponent=1.15,
    min_sentence_len=128,
    recurrence=0.27,
    buffer_size=8500,
)

PAPER_MODELS: dict[str, ModelConfig] = {
    cfg.name: cfg for cfg in (LM, GNMT8, TRANSFORMER, BERT_BASE)
}

#: DLRM-style recommendation model (Naumov et al.): many categorical
#: embedding tables (multi-hot lookups), a bottom MLP over dense
#: features and a top MLP over the feature interactions.  Not part of
#: the paper's Table 1 — it extends the scenario matrix to the recsys
#: workload class EmbRace targets ("embedding tables dominate the model
#: size; each sample touches a handful of rows").  ``src_seq_len`` is
#: the multi-hot degree (lookups per table per sample) and
#: ``tgt_seq_len`` is 1 (one click label per sample).
DLRM = ModelConfig(
    name="DLRM",
    family="dlrm",
    tables=tuple(
        EmbeddingTableConfig(f"cat_{i}", vocab_size=500_000, dim=64)
        for i in range(8)
    ),
    hidden_dim=512,
    num_encoder_layers=3,  # top-MLP depth
    batch_size_rtx3090=2048,
    batch_size_rtx2080=1024,
    src_seq_len=4,
    tgt_seq_len=1,
    zipf_exponent=1.05,
    min_sentence_len=1,
)

#: Every config the registry serves: Table 1 plus the DLRM extension.
ALL_MODELS: dict[str, ModelConfig] = {**PAPER_MODELS, "DLRM": DLRM}
