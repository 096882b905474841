"""Skip-gram with negative sampling over locations (Figure 2).

The model parameters are the paper's ``theta = {W, W', B'}``:

- ``W``: the ``(L, dim)`` embedding matrix — row ``i`` is the latent vector
  of location ``i`` (multiplying a one-hot input by ``W`` selects a row);
- ``W'`` (named ``Wc`` here, "context matrix"): ``(L, dim)`` output weights;
- ``B'`` (named ``b``): ``(L,)`` output bias.

For a batch of (target, context) pairs and ``neg`` uniformly sampled
negatives per pair, the candidate logits are
``z[i, k] = Wc[cand[i, k]] . W[target[i]] + b[cand[i, k]]`` with
``cand[i, 0] = context[i]``. A candidate-sampling loss (sampled softmax by
default) produces ``dloss/dz``, which back-propagates into exactly
``neg + 1`` rows of ``Wc``/``b`` and one row of ``W`` per pair — the
sparsity that keeps gradient norms small enough for aggressive clipping
(the paper's key observation in Section 4.1).

The model owns the *architecture* (parameters, hyper-parameters, the loss
and negative sampling). The array math of forward, backward and local
updates runs in its swappable :class:`~repro.nn.backends.KernelBackend`,
one call per chunk of buckets (:mod:`repro.core.bucket`). The default
``"reference"`` backend reproduces the historical float64 implementation
bit for bit; ``"fast"`` trades that for float32 fused bucket kernels (see
``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.nn.backends import BIAS, CONTEXT, EMBEDDING, KernelBackend, get_backend
from repro.nn.initializers import uniform_embedding_init, zeros_init
from repro.nn.losses import CandidateSamplingLoss, make_loss
from repro.nn.parameters import ParameterSet
from repro.rng import RngLike, ensure_rng

__all__ = ["BIAS", "CONTEXT", "EMBEDDING", "SkipGramModel"]


class SkipGramModel:
    """Skip-gram negative-sampling model over a location vocabulary.

    Args:
        num_locations: vocabulary size ``L``.
        embedding_dim: the paper's ``dim`` (default 50, Section 5.1).
        num_negatives: the paper's ``neg`` (default 16, Section 5.1).
        loss: one of ``"sampled_softmax"`` (paper default),
            ``"negative_sampling"``, ``"nce"``.
        negative_sharing: ``"batch"`` draws one negative set shared by all
            pairs of a batch (TensorFlow's ``sampled_softmax`` behaviour,
            hence what the paper's implementation did — and several times
            faster); ``"per_pair"`` draws fresh negatives for every pair
            (the textbook SGNS formulation).
        rng: randomness for initialization.
        backend: compute backend name (``"reference"`` or ``"fast"``) or
            a :class:`~repro.nn.backends.KernelBackend` instance.
    """

    def __init__(
        self,
        num_locations: int,
        embedding_dim: int = 50,
        num_negatives: int = 16,
        loss: str = "sampled_softmax",
        negative_sharing: str = "batch",
        rng: RngLike = None,
        backend: str | KernelBackend = "reference",
    ) -> None:
        if num_locations < 2:
            raise ConfigError(f"num_locations must be >= 2, got {num_locations}")
        if embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {embedding_dim}")
        if num_negatives < 1:
            raise ConfigError(f"num_negatives must be >= 1, got {num_negatives}")
        if negative_sharing not in ("batch", "per_pair"):
            raise ConfigError(
                f"negative_sharing must be 'batch' or 'per_pair', got {negative_sharing!r}"
            )
        self.num_locations = int(num_locations)
        self.embedding_dim = int(embedding_dim)
        self.num_negatives = int(num_negatives)
        self.loss_name = loss
        self.negative_sharing = negative_sharing
        self._loss: CandidateSamplingLoss = make_loss(loss, num_locations)
        self.backend: KernelBackend = (
            get_backend(backend) if isinstance(backend, str) else backend
        )
        generator = ensure_rng(rng)
        self.params = ParameterSet(
            {
                EMBEDDING: uniform_embedding_init(
                    (num_locations, embedding_dim), generator
                ),
                CONTEXT: zeros_init((num_locations, embedding_dim)),
                BIAS: zeros_init((num_locations,)),
            },
            copy=False,
        )

    @property
    def loss_fn(self) -> CandidateSamplingLoss:
        """The reference candidate-sampling loss object."""
        return self._loss

    # -- sampling --------------------------------------------------------------

    def sample_negatives(self, batch: int, rng: RngLike = None) -> np.ndarray:
        """Uniformly sample ``(batch, neg)`` negative location tokens.

        The distribution is uniform by design: a frequency-weighted
        distribution would have to be estimated from private data
        (Section 3.2).
        """
        generator = ensure_rng(rng)
        return generator.integers(
            0, self.num_locations, size=(batch, self.num_negatives), dtype=np.int64
        )
