"""Configuration for PLP training (Table 1 + Section 5.1 defaults).

Every hyper-parameter of Algorithm 1 in one validated dataclass. Defaults
follow the paper's Section 5.1 settings: ``dim = 50``, ``b = 32``,
``win = 2``, ``neg = 16``, ``eta = 0.06``, ``q = 0.06``, ``sigma = 2.5``,
``C = 0.5``, ``lambda = 4``, ``delta = 2e-4``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any

from repro.exceptions import ConfigError

_GROUPING_STRATEGIES = ("random", "equal_frequency")
_CLIPPING_MODES = ("per_layer", "global")
_SERVER_OPTIMIZERS = ("additive", "adam")
_LOSSES = ("sampled_softmax", "negative_sampling", "nce")
_LOCAL_UPDATES = ("sgd", "gradient")
_BACKENDS = ("reference", "fast")


@dataclass(frozen=True, slots=True)
class PLPConfig:
    """Hyper-parameters of Private Location Prediction.

    Model (Figure 2):
        embedding_dim: the paper's ``dim``.
        num_negatives: the paper's ``neg``.
        window: the paper's ``win`` (symmetric context radius).
        loss: candidate-sampling loss name ("sampled_softmax" is the
            paper's choice; the sampling distribution is uniform).
        negative_sharing: "batch" (one shared negative set per batch, as in
            TensorFlow's sampled softmax, which the paper's implementation
            used) or "per_pair" (textbook SGNS).

    Local optimization (lines 15-22):
        batch_size: the paper's ``b`` (called beta in Algorithm 1).
        learning_rate: the paper's ``eta``.
        local_update: ``"sgd"`` runs multi-batch local SGD over the bucket
            data (PLP / federated-averaging, lines 17-19); ``"gradient"``
            takes a *single* clipped gradient step over the whole bucket —
            the classic DP-SGD update of Abadi et al., used by the DP-SGD
            baseline.

    Privacy mechanism (lines 4-13):
        grouping_factor: the paper's ``lambda`` (users per bucket).
        grouping_strategy: "random" (paper default) or "equal_frequency".
        sampling_probability: the paper's ``q = m/N``.
        clip_bound: the paper's ``C`` (overall l2 bound per bucket update).
        clipping: "per_layer" clips each tensor to C/sqrt(3) (paper);
            "global" clips the joint norm to C.
        noise_multiplier: the paper's ``sigma``.
        split_factor: the paper's ``omega``; noise scales to sigma*omega*C.
        epsilon: total privacy budget; training stops when the ledger
            reaches it.
        delta: DP failure probability (paper: 2e-4 < 1/N).

    Server update (line 10):
        server_optimizer: "additive" applies ``theta += g_hat`` exactly as
            written; "adam" applies the DP-Adam rule of Section 5.1.
        server_learning_rate: learning rate of the Adam server optimizer.

    Run control:
        max_steps: hard cap on steps regardless of remaining budget
            (``None`` = budget-only stop).
        sessionize_training: build window pairs within 6-hour sessions
            (True) or over each user's full history (False).
        eval_every: evaluate (when an eval function is given) every this
            many steps.
        backend: compute kernel backend for local training —
            ``"reference"`` (exact float64, bit-stable results),
            ``"fast"`` (float32 fused kernels, same privacy accounting,
            embeddings within float32 tolerance). Swapping backends never
            changes the privacy ledger (see ``docs/kernels.md``).
    """

    embedding_dim: int = 50
    num_negatives: int = 16
    window: int = 2
    loss: str = "sampled_softmax"
    negative_sharing: str = "batch"
    batch_size: int = 32
    learning_rate: float = 0.06
    local_update: str = "sgd"
    grouping_factor: int = 4
    grouping_strategy: str = "random"
    sampling_probability: float = 0.06
    clip_bound: float = 0.5
    clipping: str = "per_layer"
    noise_multiplier: float = 2.5
    split_factor: int = 1
    epsilon: float = 2.0
    delta: float = 2e-4
    server_optimizer: str = "additive"
    server_learning_rate: float = 0.05
    max_steps: int | None = None
    sessionize_training: bool = True
    eval_every: int = 50
    backend: str = "reference"

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.num_negatives < 1:
            raise ConfigError(f"num_negatives must be >= 1, got {self.num_negatives}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.loss not in _LOSSES:
            raise ConfigError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        if self.negative_sharing not in ("batch", "per_pair"):
            raise ConfigError(
                "negative_sharing must be 'batch' or 'per_pair', "
                f"got {self.negative_sharing!r}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.local_update not in _LOCAL_UPDATES:
            raise ConfigError(
                f"local_update must be one of {_LOCAL_UPDATES}, got {self.local_update!r}"
            )
        if self.grouping_factor < 1:
            raise ConfigError(
                f"grouping_factor must be >= 1, got {self.grouping_factor}"
            )
        if self.grouping_strategy not in _GROUPING_STRATEGIES:
            raise ConfigError(
                f"grouping_strategy must be one of {_GROUPING_STRATEGIES}, "
                f"got {self.grouping_strategy!r}"
            )
        if not 0.0 < self.sampling_probability <= 1.0:
            raise ConfigError(
                f"sampling_probability must be in (0, 1], got {self.sampling_probability}"
            )
        if self.clip_bound <= 0.0:
            raise ConfigError(f"clip_bound must be positive, got {self.clip_bound}")
        if self.clipping not in _CLIPPING_MODES:
            raise ConfigError(
                f"clipping must be one of {_CLIPPING_MODES}, got {self.clipping!r}"
            )
        if self.noise_multiplier < 0.0:
            raise ConfigError(
                f"noise_multiplier must be >= 0, got {self.noise_multiplier}"
            )
        if self.split_factor < 1:
            raise ConfigError(f"split_factor must be >= 1, got {self.split_factor}")
        if self.epsilon <= 0.0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
        if self.server_optimizer not in _SERVER_OPTIMIZERS:
            raise ConfigError(
                f"server_optimizer must be one of {_SERVER_OPTIMIZERS}, "
                f"got {self.server_optimizer!r}"
            )
        if self.server_learning_rate <= 0.0:
            raise ConfigError(
                f"server_learning_rate must be positive, got {self.server_learning_rate}"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max_steps must be >= 1 or None, got {self.max_steps}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.backend not in _BACKENDS:
            raise ConfigError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )

    def with_overrides(self, **overrides: Any) -> "PLPConfig":
        """A copy of the config with the given fields replaced (re-validated).

        Accepts canonical field names only.

        Raises:
            ConfigError: on an unknown field or an invalid resulting config.
        """
        valid = {field.name for field in fields(self)}
        for key in overrides:
            if key not in valid:
                raise ConfigError(f"unknown PLPConfig field {key!r}")
        return replace(self, **overrides)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form, JSON-serializable; round-trips via
        ``PLPConfig().with_overrides(**d)`` / :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, values: dict[str, Any]) -> "PLPConfig":
        """Build a config from a (possibly partial) field dict.

        Unlisted fields keep their defaults. This is the inverse of
        :meth:`as_dict` and the entry point for ``repro train --config``.
        """
        if not isinstance(values, dict):
            raise ConfigError(
                f"config must be a JSON object, got {type(values).__name__}"
            )
        return cls().with_overrides(**values)

    def steps_per_epoch(self) -> int:
        """Steps per data epoch: ``1/q`` (Section 5.1)."""
        from repro.privacy.accountant.calibration import steps_per_epoch

        return steps_per_epoch(self.sampling_probability)
