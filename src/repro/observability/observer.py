"""The unified observer protocol shared by training and serving.

:class:`Observer` is the one callback base class of the training engine
and the serving stack: every hook of both layers is a no-op on it, so a
single observer instance can watch a model from its training steps
through its serving traffic.

Hook groups:

- **Training** (one engine step = Algorithm 1 lines 5-12):
  ``on_step_start`` / ``on_bucket_done`` / ``on_step_end`` / ``on_stop``.
- **Serving** (one request / coalesced micro-batch / artifact reload):
  ``on_request`` / ``on_batch`` / ``on_reload``.

Every hook is a no-op on the base class; override what you need.
Observers must never mutate training state or consume randomness — the
engine guarantees bit-identical results with and without observers
attached, and that guarantee extends to yours only if you only *read*.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.bucket import BucketUpdate
    from repro.core.engine.engine import EngineContext
    from repro.core.engine.stages import StepResult


class Observer:
    """Unified no-op observer base: training hooks + serving hooks."""

    # -- training-engine hooks -------------------------------------------

    def on_step_start(self, context: "EngineContext", step: int) -> None:
        """Called before step ``step``'s stage pipeline runs."""

    def on_bucket_done(
        self, context: "EngineContext", step: int, update: "BucketUpdate"
    ) -> None:
        """Called for each bucket update gathered by the executor."""

    def on_step_end(self, context: "EngineContext", result: "StepResult") -> None:
        """Called after step ``result.step`` completed (stages + timing)."""

    def on_stop(self, context: "EngineContext", reason: str) -> None:
        """Called once after the run stopped (after any rollback)."""

    # -- serving hooks ----------------------------------------------------

    def on_request(
        self, status: str, latency_seconds: float, fallback: bool = False
    ) -> None:
        """Called after each serving request completes.

        Args:
            status: ``"ok"``, ``"invalid"`` (bad request), ``"timeout"``,
                or ``"error"``.
            latency_seconds: wall time from submission to response.
            fallback: whether the popularity prior answered (no input
                location was known to the model).
        """

    def on_model_request(self, model: str, status: str) -> None:
        """Called alongside :meth:`on_request` with the model's name.

        A separate hook (rather than a new ``on_request`` parameter) so
        observer subclasses written against the single-model signature
        keep working unchanged under multi-tenant serving.

        Args:
            model: registry name of the model the request addressed.
            status: same terminal status passed to :meth:`on_request`
                (plus ``"shed"`` for load-shed requests).
        """

    def on_batch(self, batch_size: int, latency_seconds: float) -> None:
        """Called after the batcher scores one coalesced micro-batch."""

    def on_reload(self, version: int, ok: bool, source: str) -> None:
        """Called after a model (re)load attempt."""
