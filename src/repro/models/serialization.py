"""Model persistence: deployable artifacts.

Section 3.3 of the paper: after private training, the model is shared with
consumers — "a mobile user downloads it to her device ... to reduce
communication costs, only the embedding matrix is deployed." This module
saves and loads exactly that artifact: the unit-normalized embedding
matrix plus the location vocabulary, as one ``.npz`` file.

Because the model was trained under DP, the artifact can be distributed
freely (post-processing preserves the guarantee); the file also records
the privacy metadata so consumers can audit what they received.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Hashable

import numpy as np

from repro.exceptions import DataError
from repro.models.embeddings import EmbeddingMatrix
from repro.models.recommender import NextLocationRecommender
from repro.models.vocabulary import LocationVocabulary
from repro.nn.functional import normalize_rows

_FORMAT_VERSION = 1

# -- shared read-only embedding store ------------------------------------------
#
# ``np.savez_compressed`` archives cannot be memory-mapped (``mmap_mode``
# is silently ignored for zip members), so multi-worker serving would pay
# one private heap copy of θ per process. The sidecar cache below
# materializes the *normalized* matrix — float64 for the exact kernel and
# float32 for the fast kernel — as plain ``.npy`` files next to the
# artifact, which ``np.load(mmap_mode="r")`` then maps read-only: N
# workers share one page-cache copy (mirroring ``ShardedCheckinStore``'s
# lazy-map discipline).

_MMAP_CACHE_SUFFIX = ".mmapcache"
_MMAP_CACHE_VERSION = 1


def _mmap_cache_dir(path: Path) -> Path:
    return path.with_name(path.name + _MMAP_CACHE_SUFFIX)


def _atomic_write_array(target: Path, array: np.ndarray) -> None:
    """Write ``target`` via tmp-file + ``os.replace`` (never half-visible)."""
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            np.save(handle, array)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def ensure_mmap_cache(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Build (when stale) and map the artifact's shared embedding cache.

    Returns:
        ``(matrix64, matrix32)`` — read-only memory-mapped views of the
        normalized embedding matrix, byte-identical to what the in-heap
        load path computes. Concurrent builders race benignly: each writes
        through private tmp files and the last ``os.replace`` wins with
        identical contents.

    Raises:
        DataError: when the artifact is missing or malformed.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    stat = path.stat()
    stamp = {
        "cache_version": _MMAP_CACHE_VERSION,
        "source_mtime_ns": stat.st_mtime_ns,
        "source_size": stat.st_size,
    }
    cache = _mmap_cache_dir(path)
    meta_path = cache / "meta.json"
    fresh = False
    if meta_path.exists():
        try:
            fresh = json.loads(meta_path.read_text()) == stamp
        except (OSError, json.JSONDecodeError):
            fresh = False
    if not fresh:
        try:
            with np.load(path, allow_pickle=False) as archive:
                matrix = np.asarray(archive["embeddings"], dtype=np.float64)
        except (KeyError, ValueError, OSError) as error:
            raise DataError(f"malformed model file {path}: {error}") from error
        if matrix.ndim != 2:
            raise DataError(
                f"embedding matrix in {path} must be 2-D, got {matrix.shape}"
            )
        matrix = normalize_rows(matrix)
        cache.mkdir(parents=True, exist_ok=True)
        _atomic_write_array(cache / "embeddings64.npy", matrix)
        _atomic_write_array(
            cache / "embeddings32.npy",
            np.ascontiguousarray(matrix, dtype=np.float32),
        )
        tmp = cache / f".meta.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(stamp))
        os.replace(tmp, meta_path)
    try:
        matrix64 = np.load(cache / "embeddings64.npy", mmap_mode="r")
        matrix32 = np.load(cache / "embeddings32.npy", mmap_mode="r")
    except (ValueError, OSError) as error:
        raise DataError(f"corrupt mmap cache {cache}: {error}") from error
    return matrix64, matrix32


def save_deployable_model(
    path: str | Path,
    embeddings: EmbeddingMatrix,
    vocabulary: LocationVocabulary,
    privacy_metadata: dict | None = None,
    include_counts: bool = False,
) -> None:
    """Save the deployable artifact (embedding matrix + vocabulary).

    Args:
        path: output ``.npz`` path.
        embeddings: the trained, unit-normalized location embeddings.
        vocabulary: the POI-id <-> token mapping used in training.
        privacy_metadata: optional audit record (e.g. ``{"epsilon": 2.0,
            "delta": 2e-4, "mechanism": "PLP"}``); values must be
            JSON-serializable.
        include_counts: also store the vocabulary's raw visit counts, which
            the serving layer turns into a popularity fallback prior. Off
            by default: unlike the embeddings, raw counts carry no DP
            guarantee (see ``docs/serving.md``).

    Raises:
        DataError: when embeddings and vocabulary disagree on size.
    """
    if embeddings.num_locations != vocabulary.size:
        raise DataError(
            f"embedding rows ({embeddings.num_locations}) != vocabulary size "
            f"({vocabulary.size})"
        )
    locations = [vocabulary.location(token) for token in range(vocabulary.size)]
    payload = {
        "format_version": _FORMAT_VERSION,
        "locations": locations,
        "privacy": privacy_metadata or {},
    }
    if include_counts:
        # Raw per-POI visit counts are NOT covered by the DP guarantee on
        # the embeddings (they are computed directly from the data), which
        # is why exporting them is opt-in. Artifacts without counts serve a
        # uniform fallback prior instead.
        payload["counts"] = [
            int(vocabulary.count(token)) for token in range(vocabulary.size)
        ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        embeddings=embeddings.matrix,
        metadata=np.frombuffer(
            json.dumps(payload, default=str).encode("utf-8"), dtype=np.uint8
        ),
    )


def load_deployable_model(
    path: str | Path,
    mmap: bool = False,
) -> tuple[EmbeddingMatrix, LocationVocabulary, dict]:
    """Load a deployable artifact saved by :func:`save_deployable_model`.

    Args:
        path: the ``.npz`` artifact.
        mmap: map the embedding matrix read-only from the shared sidecar
            cache (:func:`ensure_mmap_cache`) instead of materializing a
            private in-heap copy — N serving workers then share one
            physical copy of θ. Scores are byte-identical either way.

    Returns:
        ``(embeddings, vocabulary, privacy_metadata)``.

    Raises:
        DataError: when the file is missing or malformed.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"model file not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            # In mmap mode only the (tiny) metadata member is decompressed;
            # the matrix comes from the sidecar cache mapping instead.
            matrix = None if mmap else archive["embeddings"]
            metadata_bytes = archive["metadata"].tobytes()
    except (KeyError, ValueError, OSError) as error:
        raise DataError(f"malformed model file {path}: {error}") from error
    try:
        payload = json.loads(metadata_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise DataError(f"corrupt metadata in {path}") from error
    if payload.get("format_version") != _FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    if mmap:
        matrix64, matrix32 = ensure_mmap_cache(path)
        embeddings = EmbeddingMatrix.from_normalized(matrix64, matrix32)
    else:
        # Matrix was normalized before save; normalization is idempotent.
        embeddings = EmbeddingMatrix(matrix, normalize=True)
    locations: list[Hashable] = payload["locations"]
    if len(locations) != embeddings.num_locations:
        raise DataError(
            f"vocabulary size {len(locations)} != embedding rows "
            f"{embeddings.num_locations}"
        )
    counts = payload.get("counts")
    if counts is not None and len(counts) != len(locations):
        raise DataError(
            f"counts length {len(counts)} != vocabulary size {len(locations)}"
        )
    vocabulary = LocationVocabulary.from_locations(locations, counts=counts)
    return embeddings, vocabulary, payload.get("privacy", {})


def load_recommender(
    path: str | Path,
    exclude_input: bool = False,
    with_fallback: bool = False,
) -> NextLocationRecommender:
    """Load an artifact straight into a ready-to-serve recommender.

    Args:
        path: the ``.npz`` artifact.
        exclude_input: drop input locations from recommendation lists.
        with_fallback: configure the popularity fallback prior, so queries
            with no known location degrade gracefully instead of raising
            (uniform when the artifact was saved without counts).
    """
    embeddings, vocabulary, _ = load_deployable_model(path)
    fallback = None
    if with_fallback:
        from repro.baselines.popularity import popularity_prior

        fallback = popularity_prior(vocabulary)
    return NextLocationRecommender(
        embeddings,
        vocabulary=vocabulary,
        exclude_input=exclude_input,
        fallback_scores=fallback,
    )


# -- training checkpoints ------------------------------------------------------
#
# Unlike the deployable artifact above (embeddings only), a training
# checkpoint is a snapshot of theta and the ledger: the full parameter
# set and the privacy ledger's recorded steps. It is stored recovery
# state; no entry point resumes training from it (``fit`` always builds a
# fresh model and ledger). Restoring the ledger replays its entries
# through a fresh accountant, so the rebuilt ledger reports the exact
# accumulated RDP curve.

_CHECKPOINT_VERSION = 1
_PARAM_PREFIX = "param__"


@dataclass(frozen=True, slots=True)
class TrainingCheckpoint:
    """A loaded training checkpoint.

    Attributes:
        step: the step count at which the checkpoint was taken.
        parameters: name -> tensor mapping of the full model state theta.
        ledger_config: ``{"delta": ..., "sampling_probability": ...}`` or
            ``None`` for a non-private run.
        ledger_entries: recorded ``(clip_bound, noise_multiplier, q)``
            triples, in step order.
    """

    step: int
    parameters: dict[str, np.ndarray]
    ledger_config: dict | None
    ledger_entries: list[tuple[float, float, float]]

    def restore_ledger(self):
        """Rebuild the :class:`~repro.privacy.accountant.PrivacyLedger`.

        Returns ``None`` when the checkpoint came from a non-private run.
        """
        if self.ledger_config is None:
            return None
        from repro.privacy.accountant import PrivacyLedger

        ledger = PrivacyLedger(
            delta=self.ledger_config["delta"],
            sampling_probability=self.ledger_config["sampling_probability"],
        )
        for clip_bound, noise_multiplier, q in self.ledger_entries:
            ledger.track_budget(clip_bound, noise_multiplier, q)
        return ledger

    def restore_parameters(self, params) -> None:
        """Copy the checkpoint tensors into an existing parameter set.

        Raises:
            DataError: on a name or shape mismatch.
        """
        if set(params.names()) != set(self.parameters):
            raise DataError(
                f"checkpoint tensors {sorted(self.parameters)} != model tensors "
                f"{sorted(params.names())}"
            )
        for name, tensor in self.parameters.items():
            if params[name].shape != tensor.shape:
                raise DataError(
                    f"checkpoint tensor {name!r} has shape {tensor.shape}, "
                    f"model expects {params[name].shape}"
                )
            params[name][...] = tensor


def save_training_checkpoint(
    path: str | Path,
    params,
    step: int,
    ledger=None,
) -> None:
    """Save a training checkpoint: a snapshot of theta and the ledger.

    Args:
        path: output ``.npz`` path.
        params: the model's :class:`~repro.nn.parameters.ParameterSet`.
        step: the current step count.
        ledger: the run's :class:`~repro.privacy.accountant.PrivacyLedger`
            (``None`` for non-private runs).
    """
    ledger_payload = None
    entries: list[list[float]] = []
    if ledger is not None:
        ledger_payload = {
            "delta": ledger.delta,
            "sampling_probability": ledger.default_sampling_probability,
        }
        entries = [
            [entry.clip_bound, entry.noise_multiplier, entry.sampling_probability]
            for entry in ledger
        ]
    payload = {
        "checkpoint_version": _CHECKPOINT_VERSION,
        "step": int(step),
        "ledger": ledger_payload,
        "ledger_entries": entries,
    }
    tensors = {_PARAM_PREFIX + name: tensor for name, tensor in params.items()}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        metadata=np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8),
        **tensors,
    )


def load_training_checkpoint(path: str | Path) -> TrainingCheckpoint:
    """Load a checkpoint saved by :func:`save_training_checkpoint`.

    Raises:
        DataError: when the file is missing or malformed.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"checkpoint file not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as archive:
            metadata_bytes = archive["metadata"].tobytes()
            parameters = {
                key[len(_PARAM_PREFIX):]: archive[key]
                for key in archive.files
                if key.startswith(_PARAM_PREFIX)
            }
    except (KeyError, ValueError, OSError) as error:
        raise DataError(f"malformed checkpoint file {path}: {error}") from error
    try:
        payload = json.loads(metadata_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise DataError(f"corrupt metadata in {path}") from error
    if payload.get("checkpoint_version") != _CHECKPOINT_VERSION:
        raise DataError(
            f"unsupported checkpoint version {payload.get('checkpoint_version')!r}"
        )
    if not parameters:
        raise DataError(f"checkpoint {path} holds no parameter tensors")
    return TrainingCheckpoint(
        step=int(payload["step"]),
        parameters=parameters,
        ledger_config=payload.get("ledger"),
        ledger_entries=[tuple(entry) for entry in payload.get("ledger_entries", [])],
    )
