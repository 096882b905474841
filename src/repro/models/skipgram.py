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

The model owns the *architecture* (parameters, hyper-parameters, negative
sampling); the array math of forward, backward, and local updates lives in
a swappable :class:`~repro.nn.backends.KernelBackend`. The default
``"reference"`` backend reproduces the historical float64 implementation
bit for bit; ``"fast"`` trades that for float32 fused bucket kernels (see
``docs/kernels.md``).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigError
from repro.nn.backends import BIAS, CONTEXT, EMBEDDING, KernelBackend, get_backend
from repro.nn.functional import normalize_rows, scatter_add_rows
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

    # -- forward / backward (delegated to the kernel backend) -------------------

    def candidate_logits(
        self, params: ParameterSet, targets: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Logits ``(batch, 1 + neg)`` for the given candidate token matrix."""
        return self.backend.candidate_logits(params, targets, candidates)

    def loss_and_sparse_grads(
        self,
        params: ParameterSet,
        targets: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
    ) -> tuple[float, dict]:
        """Mean batch loss and the sparse gradient pieces.

        Returns:
            ``(loss, pieces)`` where ``pieces`` holds everything needed to
            scatter the gradient: target rows + their dense gradients, and
            candidate rows + their dense gradients for ``Wc`` and ``b``.
        """
        targets = np.asarray(targets, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        if negatives.shape != (targets.shape[0], self.num_negatives):
            raise ConfigError(
                f"negatives must have shape ({targets.shape[0]}, {self.num_negatives}),"
                f" got {negatives.shape}"
            )
        return self.backend.loss_and_sparse_grads(
            self._loss, params, targets, contexts, negatives
        )

    def dense_gradients(
        self,
        params: ParameterSet,
        targets: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Full-shape gradients of the mean batch loss (for checks/analysis).

        Returns:
            ``(loss, grads)`` with ``grads`` shaped like the parameters.
        """
        loss, pieces = self.loss_and_sparse_grads(params, targets, contexts, negatives)
        grads = {
            EMBEDDING: np.zeros_like(params[EMBEDDING]),
            CONTEXT: np.zeros_like(params[CONTEXT]),
            BIAS: np.zeros_like(params[BIAS]),
        }
        candidates_flat = pieces["candidates"].ravel()
        batch, width = pieces["candidates"].shape
        scatter_add_rows(grads[EMBEDDING], pieces["targets"], pieces["grad_hidden"])
        scatter_add_rows(
            grads[CONTEXT],
            candidates_flat,
            pieces["grad_context_rows"].reshape(batch * width, -1),
        )
        scatter_add_rows(
            grads[BIAS], candidates_flat, pieces["grad_bias_rows"].ravel()
        )
        return loss, grads

    def apply_sparse_update(
        self, params: ParameterSet, pieces: dict, learning_rate: float
    ) -> None:
        """One in-place SGD step from sparse gradient pieces.

        Equivalent to ``params -= lr * dense_gradients`` but touches only the
        rows that received gradient (the candidate rows of ``Wc``/``b`` and
        the batch's target rows of ``W``).
        """
        self.backend.apply_sparse_update(params, pieces, learning_rate)

    # -- shared-negative fast path ----------------------------------------------

    def loss_and_shared_grads(
        self,
        params: ParameterSet,
        targets: np.ndarray,
        contexts: np.ndarray,
        negatives: np.ndarray,
    ) -> tuple[float, dict]:
        """Loss and sparse gradients with one negative set shared batch-wide.

        Args:
            params: current parameters.
            targets: ``(batch,)`` target tokens.
            contexts: ``(batch,)`` positive context tokens.
            negatives: ``(neg,)`` shared negative tokens.

        Returns:
            ``(loss, pieces)`` where ``pieces["shared"]`` is True and the
            gradient pieces are laid out for :meth:`apply_sparse_update`.
        """
        targets = np.asarray(targets, dtype=np.int64)
        contexts = np.asarray(contexts, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64).ravel()
        if negatives.shape != (self.num_negatives,):
            raise ConfigError(
                f"shared negatives must have shape ({self.num_negatives},), "
                f"got {negatives.shape}"
            )
        return self.backend.loss_and_shared_grads(
            self._loss, params, targets, contexts, negatives
        )

    def sgd_step(
        self,
        params: ParameterSet,
        targets: np.ndarray,
        contexts: np.ndarray,
        learning_rate: float,
        rng: RngLike = None,
    ) -> float:
        """One SGD step on a batch (samples negatives internally).

        This is line 19 of Algorithm 1:
        ``Phi <- Phi - eta * (1/|b|) * sum grad J``.

        Returns:
            The mean batch loss before the update.
        """
        generator = ensure_rng(rng)
        if self.negative_sharing == "batch":
            negatives = generator.integers(
                0, self.num_locations, size=self.num_negatives, dtype=np.int64
            )
            loss, pieces = self.loss_and_shared_grads(
                params, targets, contexts, negatives
            )
        else:
            negatives = self.sample_negatives(len(targets), generator)
            loss, pieces = self.loss_and_sparse_grads(
                params, targets, contexts, negatives
            )
        self.apply_sparse_update(params, pieces, learning_rate)
        return loss

    # -- inference --------------------------------------------------------------

    def normalized_embeddings(self) -> np.ndarray:
        """Unit-l2-normalized embedding matrix (Section 3.2's normalization)."""
        return normalize_rows(self.params[EMBEDDING])

    def evaluate_loss(
        self,
        pairs: np.ndarray,
        rng: RngLike = None,
        max_pairs: int | None = None,
    ) -> float:
        """Mean candidate-sampling loss over ``pairs`` without updating.

        Args:
            pairs: ``(n, 2)`` target/context token pairs.
            rng: randomness for the negative samples.
            max_pairs: evaluate on a random subsample of at most this many
                pairs (``None`` for all).
        """
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.shape[0] == 0:
            return float("nan")
        generator = ensure_rng(rng)
        if max_pairs is not None and pairs.shape[0] > max_pairs:
            index = generator.choice(pairs.shape[0], size=max_pairs, replace=False)
            pairs = pairs[index]
        negatives = self.sample_negatives(pairs.shape[0], generator)
        loss, _ = self.loss_and_sparse_grads(
            self.params, pairs[:, 0], pairs[:, 1], negatives
        )
        return loss

    def clone_architecture(self, rng: RngLike = None) -> "SkipGramModel":
        """A freshly initialized model with identical hyper-parameters."""
        return SkipGramModel(
            num_locations=self.num_locations,
            embedding_dim=self.embedding_dim,
            num_negatives=self.num_negatives,
            loss=self.loss_name,
            negative_sharing=self.negative_sharing,
            rng=rng,
            backend=self.backend,
        )
