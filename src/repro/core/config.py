"""Configuration for the OmniMatch model and trainer.

Defaults follow the paper's §5.4 implementation details, scaled down for
CPU: the paper uses 300-d fastText embeddings and 200 filters per kernel
size on an A100; we default to 48-d PPMI-SVD embeddings and 32 filters.
The structural hyperparameters — kernel sizes (3, 4, 5), dropout 0.4,
Adadelta(lr=0.02, rho=0.95), temperature 0.07, alpha=0.2, beta=0.1,
batch size 64 — are the paper's values.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OmniMatchConfig"]


@dataclass(frozen=True)
class OmniMatchConfig:
    # --- documents
    doc_len: int = 64
    vocab_size: int = 4000
    field: str = "summary"  # 'summary' (paper default) or 'text' (ablation)

    # --- extractors
    extractor: str = "cnn"  # 'cnn' (paper default) or 'transformer' (BERT ablation)
    embed_dim: int = 48
    num_filters: int = 32
    kernel_sizes: tuple[int, ...] = (3, 4, 5)
    pooling: str = "max_mean"  # paper: 'max'; mean pooling added so the
    # extractors can encode feature *frequency* (sentiment mix -> user bias)
    invariant_dim: int = 64
    specific_dim: int = 64
    projection_dim: int = 32
    dropout: float = 0.2  # paper: 0.4; halved for the smaller extractors
    transformer_layers: int = 2
    transformer_heads: int = 4

    # --- losses (paper Eq. 21)
    alpha: float = 0.2  # weight of the supervised contrastive loss
    beta: float = 0.1  # weight of the domain classification loss
    temperature: float = 0.07
    grl_lambda: float = 1.0
    alignment_method: str = "grl"  # 'grl' (paper) or 'mmd' (§4.4 notes the
    # framework accommodates alternative alignment objectives)

    # --- module toggles (Table 5 ablations)
    use_scl: bool = True
    use_domain_adversarial: bool = True
    use_auxiliary_reviews: bool = True

    # --- cold-start inference mode
    # 'blend' (default): the cold user's domain-invariant features are the
    #   mean of the target extractor's features over the auxiliary document
    #   and the source extractor's features over the real source document —
    #   the paper combines auxiliary reviews "with the users' reviews in the
    #   source domain to extract the users' domain-invariant information"
    #   (§1), and the SCL + DA modules align the two feature spaces so the
    #   average is meaningful.
    # 'dual': the rating head sees the source-extractor and
    #   target-extractor invariant features as separate inputs and learns
    #   its own mixing weights.
    # 'aux_only': target features come from the auxiliary document alone.
    cold_inference: str = "dual"

    # --- training
    batch_size: int = 64
    epochs: int = 40  # upper bound; early stopping picks the best epoch
    # (paper: 15 epochs on the full datasets)
    optimizer: str = "adadelta"  # 'adadelta' (paper) or 'adam'
    learning_rate: float = 1.0  # paper: 0.02 on the full datasets; the
    # scaled-down corpus needs the larger PyTorch-default Adadelta step
    rho: float = 0.95
    early_stopping: bool = True  # keep the best cold-start validation epoch
    patience: int = 6
    aux_mix_prob: float = 0.5  # fraction of training examples whose target
    # document is replaced by the auxiliary document (train/test matching)
    target_dropout_prob: float = 0.15  # fraction of training examples whose
    # target document is blanked entirely, forcing the rating head to learn
    # a usable source-only path (the fallback when Algorithm 1 finds no
    # like-minded users for a cold-start user)
    grad_clip: float = 5.0
    seed: int = 0

    # --- robustness / divergence recovery
    max_divergence_retries: int = 3  # total rollback+retry budget per fit();
    # exhausting it raises TrainingDivergedError instead of looping forever
    lr_backoff_factor: float = 0.5  # learning-rate multiplier applied on each
    # rollback; the reduced rate persists for the rest of the run

    # --- numerics
    dtype: str = "float32"  # compute dtype for model + training; 'float64'
    # recovers the seed numerics (and is what gradcheck uses)

    def __post_init__(self) -> None:
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.field not in ("summary", "text"):
            raise ValueError("field must be 'summary' or 'text'")
        if self.extractor not in ("cnn", "transformer"):
            raise ValueError("extractor must be 'cnn' or 'transformer'")
        if not 0.0 <= self.aux_mix_prob <= 1.0:
            raise ValueError("aux_mix_prob must be in [0, 1]")
        if self.cold_inference not in ("blend", "dual", "aux_only"):
            raise ValueError("cold_inference must be 'blend', 'dual', or 'aux_only'")
        if self.alignment_method not in ("grl", "mmd"):
            raise ValueError("alignment_method must be 'grl' or 'mmd'")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be non-negative")
        if min(self.kernel_sizes) < 1:
            raise ValueError("kernel sizes must be positive")
        if self.doc_len < max(self.kernel_sizes):
            raise ValueError("doc_len must be at least the largest kernel size")
        if self.max_divergence_retries < 0:
            raise ValueError("max_divergence_retries must be non-negative")
        if not 0.0 < self.lr_backoff_factor <= 1.0:
            raise ValueError("lr_backoff_factor must be in (0, 1]")
