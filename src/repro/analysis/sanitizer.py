"""dpsan: the opt-in runtime concurrency/determinism sanitizer.

dpflow's program rules (DPL006-008) argue statically; dpsan checks the
same invariants under real execution. While a :class:`Sanitizer` is
installed it instruments, via class-level monkeypatches (so every call
site is covered regardless of how a function was imported):

- **RNG draw sites** — :mod:`repro.rng`'s ``spawn`` / ``derive`` calls
  are recorded into a :class:`DrawLog`, letting tests assert per-round
  draw determinism across the serial executor and the process pool.
- **Single-writer state** — the classes DPL007 accepts on the strength
  of a "single-writer" docstring (:class:`~repro.privacy.accountant.
  ledger.PrivacyLedger`, :class:`~repro.core.engine.stages.StepPipeline`,
  :class:`~repro.data.store.ShardedCheckinStore`,
  :class:`~repro.core._pairs.StorePairSource`) get exactly that asserted:
  the first mutating thread owns the instance, and a mutation from any
  other thread raises :class:`SanitizerError` carrying both stacks.
- **Lock discipline** — new :class:`~repro.observability.metrics.
  MetricsRegistry` / :class:`~repro.serving.registry.ModelRegistry`
  instances get their lock swapped for a :class:`MonitoredRLock`, and the
  mutating entry points (``inc``/``set``/``observe``/``load``/...) must
  observably acquire it during the call.

Instrumentation is strictly observational: no draw, no result, and no
timing-relevant code path changes, so a training run under dpsan is
bit-identical to an uninstrumented run (asserted by the test suite and
by :func:`run_smoke`, which backs ``repro lint --sanitize``).

Enable per-process with the ``REPRO_DPSAN=1`` environment variable (the
test suite's conftest installs a session sanitizer when set), per-test
with the ``dpsan`` fixture, or directly::

    with Sanitizer() as san:
        trainer.fit(corpus)
    assert san.draw_log.per_step_counts()

Sanitizers do not nest within a process; install order is restored on
exit even when the body raises.
"""

from __future__ import annotations

import threading
import traceback
import weakref
from typing import Any, Callable

from repro.exceptions import ReproError

ENV_VAR = "REPRO_DPSAN"

_STACK_DEPTH = 12


class SanitizerError(ReproError):
    """A runtime violation of a concurrency/determinism invariant."""


def _stack() -> str:
    """The offending stack, trimmed of the sanitizer's own frames."""
    frames = traceback.format_stack()[:-2]
    return "".join(frames[-_STACK_DEPTH:])


class DrawLog:
    """Ordered record of seed-material events (``derive`` / ``spawn``).

    ``derive`` tags follow the engine's convention of leading with the
    step index (``derive(root, step, bucket)``), which is what
    :meth:`per_step_counts` keys on.
    """

    def __init__(self) -> None:
        self.events: list[tuple[str, tuple[int, ...]]] = []

    def record(self, event: str, tags: tuple[int, ...]) -> None:
        self.events.append((event, tags))

    def snapshot(self) -> tuple[tuple[str, tuple[int, ...]], ...]:
        return tuple(self.events)

    def per_step_counts(self) -> dict[int, int]:
        """``step -> number of derives`` for step-tagged derive events."""
        counts: dict[int, int] = {}
        for event, tags in self.events:
            if event == "derive" and tags:
                step = int(tags[0])
                counts[step] = counts.get(step, 0) + 1
        return counts


class MonitoredRLock:
    """An RLock that counts acquisitions per thread.

    Swapped in for registry locks so wrapped mutators can assert "this
    call acquired the lock" — the count for the calling thread must rise
    during the call. Each thread is the single-writer of its own counter
    entry (distinct dict keys per thread), so the bookkeeping is safe.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._acquisitions: dict[int, int] = {}

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            ident = threading.get_ident()
            self._acquisitions[ident] = self._acquisitions.get(ident, 0) + 1
        return acquired

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def acquisitions(self) -> int:
        """Total acquisitions by the calling thread so far."""
        return self._acquisitions.get(threading.get_ident(), 0)


class _SingleWriterGuard:
    """Asserts one-thread ownership of mutations, per instance."""

    def __init__(self, description: str) -> None:
        self.description = description
        self._owners: dict[int, tuple[int, str, str, Any]] = {}

    def check(self, obj: object, action: str) -> None:
        ident = threading.get_ident()
        key = id(obj)
        entry = self._owners.get(key)
        if entry is not None and entry[3] is not None and entry[3]() is None:
            entry = None  # the old owner object died; this id was reused
        if entry is None:
            try:
                ref: Any = weakref.ref(obj)
            except TypeError:
                ref = None
            name = threading.current_thread().name
            self._owners[key] = (ident, name, _stack(), ref)
            return
        owner_ident, owner_name, owner_stack, _ = entry
        if owner_ident != ident:
            raise SanitizerError(
                f"dpsan: cross-thread mutation of single-writer state: "
                f"{self.description}.{action} called from thread "
                f"{threading.current_thread().name!r} but the instance is "
                f"owned by thread {owner_name!r}.\n"
                f"--- owning thread's first mutation ---\n{owner_stack}"
                f"--- offending call ---\n{_stack()}"
            )


def _held_during(
    original: Callable[..., Any], description: str
) -> Callable[..., Any]:
    """Wrap a mutator: its monitored lock must be acquired during the call."""

    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        lock = getattr(self, "_lock", None)
        if not isinstance(lock, MonitoredRLock):
            return original(self, *args, **kwargs)
        before = lock.acquisitions()
        result = original(self, *args, **kwargs)
        if lock.acquisitions() <= before:
            raise SanitizerError(
                f"dpsan: {description} mutated shared state without "
                f"acquiring its lock.\n--- offending call ---\n{_stack()}"
            )
        return result

    wrapper.__name__ = getattr(original, "__name__", "wrapped")
    wrapper.__doc__ = original.__doc__
    return wrapper


def _single_writer(
    original: Callable[..., Any], guard: _SingleWriterGuard, action: str
) -> Callable[..., Any]:
    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        guard.check(self, action)
        return original(self, *args, **kwargs)

    wrapper.__name__ = getattr(original, "__name__", "wrapped")
    wrapper.__doc__ = original.__doc__
    return wrapper


def _monitored_init(original: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap ``__init__``: swap the instance's fresh lock for a monitored one."""

    def wrapper(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = original(self, *args, **kwargs)
        if getattr(self, "_lock", None) is not None:
            self._lock = MonitoredRLock()
        return result

    wrapper.__name__ = getattr(original, "__name__", "wrapped")
    wrapper.__doc__ = original.__doc__
    return wrapper


class Sanitizer:
    """Context manager installing/removing the dpsan instrumentation."""

    def __init__(self) -> None:
        self.draw_log = DrawLog()
        self._observer = self.draw_log.record  # stable identity for uninstall
        self._patches: list[tuple[Any, str, Any]] = []
        self._installed = False

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "Sanitizer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def install(self) -> None:
        import repro.rng as rng_module

        if self._installed:
            raise SanitizerError("dpsan: sanitizer already installed")
        if rng_module._OBSERVER is not None:
            raise SanitizerError(
                "dpsan: another sanitizer is active in this process"
            )
        rng_module._OBSERVER = self._observer
        self._installed = True
        try:
            self._install_patches()
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        import repro.rng as rng_module

        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        if rng_module._OBSERVER is self._observer:
            rng_module._OBSERVER = None
        self._installed = False

    # -- patch plumbing ----------------------------------------------------

    def _patch(self, owner: type, name: str, wrapped: Callable[..., Any]) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapped)

    def _guard(self, owner: type, description: str, *methods: str) -> None:
        guard = _SingleWriterGuard(description)
        for method in methods:
            self._patch(
                owner,
                method,
                _single_writer(owner.__dict__[method], guard, method),
            )

    def _install_patches(self) -> None:
        from repro.core._pairs import StorePairSource
        from repro.core.engine.stages import StepPipeline
        from repro.data.store import ShardedCheckinStore
        from repro.observability.metrics import (
            Counter,
            Gauge,
            Histogram,
            MetricsRegistry,
        )
        from repro.privacy.accountant.ledger import PrivacyLedger
        from repro.serving.registry import ModelRegistry

        # Single-writer assertions behind the DPL007 docstring markers.
        self._guard(PrivacyLedger, "PrivacyLedger", "track_budget", "reset")
        self._guard(StepPipeline, "StepPipeline", "apply", "account")
        self._guard(ShardedCheckinStore, "ShardedCheckinStore", "_shard")
        self._guard(StorePairSource, "StorePairSource", "pairs")

        # Lock-discipline assertions on the lock-owning registries.
        self._patch(MetricsRegistry, "__init__", _monitored_init(MetricsRegistry.__dict__["__init__"]))
        self._patch(ModelRegistry, "__init__", _monitored_init(ModelRegistry.__dict__["__init__"]))
        self._patch(
            MetricsRegistry,
            "_get_or_create",
            _held_during(
                MetricsRegistry.__dict__["_get_or_create"],
                "MetricsRegistry._get_or_create",
            ),
        )
        self._patch(
            ModelRegistry,
            "load",
            _held_during(ModelRegistry.__dict__["load"], "ModelRegistry.load"),
        )
        for cls, method in (
            (Counter, "inc"),
            (Gauge, "set"),
            (Gauge, "inc"),
            (Gauge, "set_info"),
            (Histogram, "observe"),
        ):
            self._patch(
                cls,
                method,
                _held_during(
                    cls.__dict__[method], f"{cls.__name__}.{method}"
                ),
            )


def run_smoke(verbose: bool = True) -> bool:
    """The ``repro lint --sanitize`` smoke; ``True`` when everything holds.

    Three checks, all under an installed sanitizer:

    1. a tiny synthetic training run is bit-identical (embeddings +
       ledger + parent-side draw log) between the serial executor and the
       sharded executor over an on-disk corpus;
    2. a multi-threaded metrics hammer completes with an exact total
       (lock discipline observed on every mutation);
    3. the sanitizer provably has teeth: a cross-thread ledger mutation
       raises :class:`SanitizerError`.
    """
    try:
        _smoke()
    except Exception as error:  # pragma: no cover - failure formatting
        if verbose:
            print(f"dpsan: smoke FAILED: {error}")
        return False
    if verbose:
        print(
            "dpsan: smoke passed (serial vs sharded bit-identity, "
            "draw-log identity, threaded metrics, cross-thread detection)"
        )
    return True


def _smoke() -> None:
    import tempfile

    from repro.core.config import PLPConfig
    from repro.core.trainer import PrivateLocationPredictor
    from repro.data.checkins import CheckinDataset
    from repro.data.store import write_sharded_store
    from repro.data.synthetic import SyntheticConfig, generate_checkins
    from repro.observability.metrics import MetricsRegistry
    from repro.privacy.accountant import PrivacyLedger

    config = PLPConfig(
        embedding_dim=8,
        num_negatives=4,
        sampling_probability=0.4,
        noise_multiplier=2.0,
        epsilon=50.0,
        grouping_factor=3,
        max_steps=2,
    )
    corpus = CheckinDataset(
        generate_checkins(
            SyntheticConfig(num_users=30, num_locations=40, num_clusters=4),
            rng=7,
        )
    )

    def train(data: object, executor: str, workers: int | None) -> tuple:
        with Sanitizer() as sanitizer:
            trainer = PrivateLocationPredictor(
                config, rng=42, executor=executor, workers=workers
            )
            trainer.fit(data)
        return (
            trainer.model.params["W"].tobytes(),
            trainer.ledger.cumulative_budget_spent(),
            sanitizer.draw_log.snapshot(),
        )

    with tempfile.TemporaryDirectory() as tmp:
        store_dir = f"{tmp}/corpus"
        write_sharded_store(store_dir, corpus, users_per_shard=10)
        serial = train(corpus, "serial", None)
        sharded = train(store_dir, "sharded", 2)
    if serial[0] != sharded[0]:
        raise SanitizerError("serial vs sharded embeddings differ under dpsan")
    if serial[1] != sharded[1]:
        raise SanitizerError("serial vs sharded ledger spend differs under dpsan")
    if serial[2] != sharded[2]:
        raise SanitizerError(
            "serial vs sharded parent-side draw logs differ under dpsan"
        )

    with Sanitizer():
        registry = MetricsRegistry()
        counter = registry.counter("dpsan_smoke_total")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(200)],
                name=f"dpsan-smoke-{index}",
            )
            for index in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = counter.total()
        if total != 800:
            raise SanitizerError(f"threaded metrics lost updates: {total}/800")

        ledger = PrivacyLedger(delta=2e-4, sampling_probability=0.4)
        ledger.track_budget(clip_bound=1.0, noise_multiplier=2.0)
        caught: list[BaseException] = []

        def cross_thread() -> None:
            try:
                ledger.track_budget(clip_bound=1.0, noise_multiplier=2.0)
            except SanitizerError as error:
                caught.append(error)

        intruder = threading.Thread(target=cross_thread, name="dpsan-intruder")
        intruder.start()
        intruder.join()
        if not caught:
            raise SanitizerError(
                "cross-thread ledger mutation was not detected"
            )
