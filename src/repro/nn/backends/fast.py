"""The fast backend: float32 compact-gather fused bucket updates.

Five ideas, all classic word2vec-at-scale techniques:

1. **Compact gather.** A bucket's local SGD only ever touches the rows
   named by its (pre-drawn) targets, contexts, and negatives. The union of
   touched rows is computed once, gathered into one stacked float32 compact
   matrix (embedding rows first, context rows after), and every batch runs
   in the remapped compact index space.
2. **Bias-as-a-column.** The compact matrix carries one extra column:
   context rows store their bias there, target rows store a constant 1.
   ``W_t . Wc_c + b_c`` is then a plain ``dim + 1`` dot product, and the
   gradient w.r.t. a context row's extended vector *is* its ``(Wc, b)``
   update — biases ride along in every GEMM and scatter for free.
3. **Precomputed scatter plans.** The row-scatter pattern of every batch is
   known before any math runs. One flat stable sort over the scatter
   destinations of *all* batches yields, per batch, its destination rows
   and the entry order that groups duplicates. Rows hit once (nearly all)
   are applied with one ``take`` and one fancy-index add; the rare
   duplicates are summed first with ``take`` + ``np.add.reduceat``, which
   adds every segment sequentially in entry order. The hot loop never
   sorts, masks, or searches.
4. **float32 accumulation.** The compact working copies are float32; the
   delta (``work - theta``) is promoted back to float64 *before* clipping,
   so the sensitivity bound, aggregation, and noise stay at reference
   precision (see :mod:`repro.nn.backends.base`).
5. **Sigmoid lookup table.** The sigmoid-based losses use the precomputed
   :class:`~repro.nn.functional.SigmoidTable` instead of per-element
   ``exp`` (sampled softmax needs no sigmoid).

One path runs every bucket. :func:`_compile_chunk` compiles a chunk of
buckets into groups of same-shape
local steps, :func:`_execute_chunk` runs each group as batched math with
the loss from one :data:`~repro.nn.losses.LossKernel` — every loss, shared
or per-pair negatives — and :func:`_finalize_chunk` promotes and clips
each bucket's delta.

The backend instance itself is stateless (lookup table and loss kernels
are lazily-built module-level caches), so it pickles cheaply into process
executor workers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.backends.base import (
    BIAS,
    CONTEXT,
    EMBEDDING,
    TENSOR_NAMES,
    BucketBatch,
    BucketDelta,
    KernelBackend,
    LocalUpdateSpec,
    clip_bucket_delta,
    empty_bucket_delta,
)
from repro.nn.functional import SigmoidTable, stable_argsort
from repro.nn.losses import LossKernel, make_loss_kernel

_sigmoid_table: SigmoidTable | None = None
_loss_kernels: dict[tuple[str, int], LossKernel] = {}


def sigmoid_table() -> SigmoidTable:
    """The process-wide sigmoid lookup table (built on first use)."""
    global _sigmoid_table
    if _sigmoid_table is None:
        _sigmoid_table = SigmoidTable()
    return _sigmoid_table


def _loss_kernel(name: str, num_locations: int) -> LossKernel:
    key = (name, num_locations)
    kernel = _loss_kernels.get(key)
    if kernel is None:
        table = sigmoid_table() if name in ("negative_sampling", "nce") else None
        kernel = make_loss_kernel(name, num_locations, sigmoid_fn=table)
        _loss_kernels[key] = kernel
    return kernel


def _add_rows(matrix: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``matrix[rows] += values`` for unique ``rows``, in place.

    ``values`` is overwritten. ``take`` gathers rows faster than fancy
    indexing, and float addition commutes, so the stored rows are the
    bits ``matrix[rows] += values`` would store.
    """
    values += matrix.take(rows, 0)
    matrix[rows] = values


def _unique_inverse(keys: np.ndarray, key_bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)`` for non-empty non-negative
    int64 ``keys`` (< ``key_bound``), sorted by :func:`stable_argsort`."""
    order = stable_argsort(keys, key_bound)
    ordered = keys[order]
    first = np.empty(ordered.size, dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    inverse = np.empty(keys.size, dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


class FastBackend(KernelBackend):
    """Compact float32 fused kernels over a whole chunk of buckets.

    Clipping, aggregation and noise stay the shared float64 code of
    :mod:`repro.nn.backends.base`, so only the local-SGD arithmetic
    differs from the reference.
    """

    name = "fast"
    accumulation_dtype = np.float32

    def fused_multi_bucket_update(
        self,
        theta,
        bucket_batches: Sequence[Sequence[BucketBatch]],
        spec: LocalUpdateSpec,
    ) -> list[BucketDelta]:
        """A chunk of buckets with the per-step compute batched across them.

        Buckets are independent (each runs local SGD from the same
        ``theta``), so local step ``j`` of *every* bucket can execute as
        one set of batched numpy calls over one concatenated compact
        matrix — amortizing the python/BLAS dispatch cost of the tiny
        per-batch kernels over the whole chunk. Same-shape steps are
        grouped so each GEMM slice has chunk-independent dimensions,
        keeping the result identical however the executor chunks buckets
        across workers. Every loss and both negative layouts run here.
        """
        results: list[BucketDelta | None] = [
            None if batches else empty_bucket_delta(theta)
            for batches in bucket_batches
        ]
        occupied = [
            (index, batches)
            for index, batches in enumerate(bucket_batches)
            if batches
        ]
        if occupied:
            schedule = _compile_chunk(
                theta,
                [batches for _, batches in occupied],
                self.accumulation_dtype,
            )
            losses = _execute_chunk(schedule, spec)
            deltas = _finalize_chunk(
                schedule,
                theta,
                spec,
                losses,
                [len(batches) for _, batches in occupied],
            )
            for (index, _), delta in zip(occupied, deltas):
                results[index] = delta
        return results  # type: ignore[return-value]


class _ChunkSchedule:
    """A chunk of buckets compiled into one batched execution schedule.

    Every bucket's compact rows live in one ``stacked`` matrix of the
    working dtype (every bucket's embedding rows, then every bucket's
    context rows; ideas 1 and 2 of the module docstring), and
    ``compiled[j]`` holds the shape groups of local step ``j`` across all
    buckets in the group tuple format :func:`_grouped_step` executes. The
    whole schedule is assembled by global vectorized passes — one flat
    stable sort and a handful of ragged-index manipulations for the entire
    chunk — so compile cost does not scale with the number of python-level
    (bucket, batch) visits.

    ``emb_src`` / ``ctx_src`` are the buckets' touched vocabulary rows
    back to back (``emb_bounds`` / ``ctx_bounds`` delimit buckets); they
    fill ``stacked[:num_emb]`` and ``stacked[num_emb:]`` in order —
    everything :func:`_finalize_chunk` needs to diff the trained rows
    against theta in one batched float64 pass.
    """

    __slots__ = (
        "stacked",
        "compiled",
        "emb_src",
        "ctx_src",
        "emb_bounds",
        "ctx_bounds",
        "num_emb",
    )


def _compile_chunk(
    theta, bucket_lists: Sequence[Sequence[BucketBatch]], dtype: type
) -> _ChunkSchedule:
    """Compile a chunk of (non-empty) buckets into a `_ChunkSchedule`.

    A bucket's part of the schedule does not depend on the other buckets
    in the chunk: its rows sort the same way, its duplicate-merge segments
    hold the same entries in the same (stable-sort) order, and its batches
    land in groups of the same shape. That is what keeps a bucket's result
    bit-identical however the executor chunks buckets (a bucket alone is a
    chunk of one).

    Every batch's entries are laid out ``[t | c | g]``: its ``n`` targets,
    its ``n`` contexts, then its negatives — ``k`` shared ones, or the
    ``(n, neg)`` per-pair block raveled pair by pair (``k = n * neg``).
    """
    num_buckets = len(bucket_lists)
    vocab = int(theta[EMBEDDING].shape[0])
    width = int(theta[EMBEDDING].shape[1]) + 1

    # -- flat per-batch metadata (the only python-level pass) --------------
    t_parts: list[np.ndarray] = []
    c_parts: list[np.ndarray] = []
    g_parts: list[np.ndarray] = []
    n_list: list[int] = []
    k_list: list[int] = []
    b_list: list[int] = []
    s_list: list[int] = []
    shared_list: list[bool] = []
    for b, batches in enumerate(bucket_lists):
        for j, batch in enumerate(batches):
            t_parts.append(batch.targets)
            c_parts.append(batch.contexts)
            g_parts.append(batch.negatives.ravel())
            n_list.append(batch.targets.size)
            k_list.append(batch.negatives.size)
            b_list.append(b)
            s_list.append(j)
            shared_list.append(batch.shared)
    q_n = np.asarray(n_list, dtype=np.int64)
    q_k = np.asarray(k_list, dtype=np.int64)
    q_bucket = np.asarray(b_list, dtype=np.int64)
    q_step = np.asarray(s_list, dtype=np.int64)
    q_shared = np.asarray(shared_list, dtype=np.int64)
    num_batches = int(q_n.size)
    all_t = np.concatenate(t_parts)
    all_c = np.concatenate(c_parts)
    all_g = np.concatenate(g_parts)
    total_pairs = int(all_t.size)

    # -- per-bucket unique rows and the stacked layout ---------------------
    # Keys ``bucket * vocab + row`` make one global sort yield every
    # bucket's sorted unique rows back to back.
    pair_bucket = np.repeat(q_bucket, q_n)
    neg_bucket = np.repeat(q_bucket, q_k)
    t_keys = pair_bucket * vocab + all_t
    c_keys = np.concatenate(
        (pair_bucket * vocab + all_c, neg_bucket * vocab + all_g)
    )
    uniq_t, inv_t = _unique_inverse(t_keys, num_buckets * vocab)
    uniq_c, inv_c = _unique_inverse(c_keys, num_buckets * vocab)
    emb_bucket = uniq_t // vocab
    ctx_bucket = uniq_c // vocab
    emb_src = uniq_t - emb_bucket * vocab
    ctx_src = uniq_c - ctx_bucket * vocab
    emb_counts = np.bincount(emb_bucket, minlength=num_buckets)
    ctx_counts = np.bincount(ctx_bucket, minlength=num_buckets)
    emb_bounds = np.zeros(num_buckets + 1, dtype=np.int64)
    np.cumsum(emb_counts, out=emb_bounds[1:])
    ctx_bounds = np.zeros(num_buckets + 1, dtype=np.int64)
    np.cumsum(ctx_counts, out=ctx_bounds[1:])
    num_emb = int(uniq_t.size)
    total_rows = num_emb + int(uniq_c.size)

    # Fill the stacked compact matrix straight from theta: every bucket's
    # embedding rows first, then every bucket's context rows. Assigning
    # the float64 gathers casts each row to the working dtype, and row
    # positions never enter the arithmetic, so the layout is bitwise
    # neutral.
    stacked = np.empty((total_rows, width), dtype=dtype)
    dim = width - 1
    stacked[:num_emb, :dim] = theta[EMBEDDING].take(emb_src, 0)
    stacked[:num_emb, dim] = 1.0
    stacked[num_emb:, :dim] = theta[CONTEXT].take(ctx_src, 0)
    stacked[num_emb:, dim] = theta[BIAS].take(ctx_src)

    # -- entry -> stacked-row map, block-major [t | c | g] per batch -------
    t_rows = inv_t
    c_rows = inv_c[:total_pairs] + num_emb
    g_rows = inv_c[total_pairs:] + num_emb
    m_q = 2 * q_n + q_k
    block_off = np.zeros(num_batches + 1, dtype=np.int64)
    np.cumsum(m_q, out=block_off[1:])
    total_entries = int(block_off[-1])
    pair_off = np.zeros(num_batches + 1, dtype=np.int64)
    np.cumsum(q_n, out=pair_off[1:])
    neg_off = np.zeros(num_batches + 1, dtype=np.int64)
    np.cumsum(q_k, out=neg_off[1:])
    scatter_idx = np.empty(total_entries, dtype=np.int64)
    dest_t = (
        np.arange(total_pairs, dtype=np.int64)
        - np.repeat(pair_off[:-1], q_n)
        + np.repeat(block_off[:-1], q_n)
    )
    scatter_idx[dest_t] = t_rows
    scatter_idx[dest_t + np.repeat(q_n, q_n)] = c_rows
    dest_g = (
        np.arange(all_g.size, dtype=np.int64)
        - np.repeat(neg_off[:-1], q_k)
        + np.repeat(block_off[:-1] + 2 * q_n, q_k)
    )
    scatter_idx[dest_g] = g_rows

    # -- one flat stable sort merges duplicate destinations per batch ------
    # (batch-offset keys keep batches disjoint; stable order keeps each
    # segment's entries in original order for ``reduceat``)
    flat = scatter_idx + np.repeat(
        np.arange(num_batches, dtype=np.int64) * total_rows, m_q
    )
    order = stable_argsort(flat, num_batches * total_rows)
    sorted_flat = flat[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(sorted_flat[1:] != sorted_flat[:-1]) + 1)
    )
    seg_flat = sorted_flat[starts]
    seg_batch = seg_flat // total_rows
    seg_row = seg_flat - seg_batch * total_rows
    seg_sizes = np.diff(np.append(starts, total_entries))
    seg_bounds = np.searchsorted(
        seg_batch, np.arange(num_batches + 1, dtype=np.int64)
    )
    seg_counts = np.diff(seg_bounds)
    order_rel = order - np.repeat(block_off[:-1], m_q)
    starts_rel = starts - block_off[seg_batch]

    # -- group batches by (local step index, n, k, negative layout) --------
    # Same-shape step ``j`` of many buckets runs as one batched call;
    # grouping never crosses step indices, so each bucket's local SGD
    # steps still execute strictly in order.
    nmax = int(q_n.max()) + 1
    kmax = int(q_k.max()) + 1
    gkey = ((q_step * nmax + q_n) * kmax + q_k) * 2 + q_shared
    uniq_g, g_inv = np.unique(gkey, return_inverse=True)
    by_group = np.argsort(g_inv, kind="stable")
    num_groups = int(uniq_g.size)
    group_bounds = np.searchsorted(
        g_inv[by_group], np.arange(num_groups + 1, dtype=np.int64)
    )
    group_num = np.diff(group_bounds)

    # Everything a group tuple needs is assembled here in group-major
    # order by global ragged gathers, so the per-group loop at the end
    # only takes slices. The ``*_all`` arrays list the chunk's sorted
    # entries / merge segments member by member, members ordered group by
    # group (``by_group``); offsets indexed by ``group_bounds`` delimit
    # the groups.
    m_by = m_q[by_group]
    ent_off = np.zeros(num_batches + 1, dtype=np.int64)
    np.cumsum(m_by, out=ent_off[1:])
    ent_idx = (
        np.arange(total_entries, dtype=np.int64)
        - np.repeat(ent_off[:-1], m_by)
        + np.repeat(block_off[by_group], m_by)
    )
    pos_in_group = np.arange(num_batches, dtype=np.int64) - np.repeat(
        group_bounds[:-1], group_num
    )
    member_base = pos_in_group * m_by
    block_all = scatter_idx[ent_idx]
    order_all = order_rel[ent_idx] + np.repeat(member_base, m_by)
    bucket_by = q_bucket[by_group]

    counts_by = seg_counts[by_group]
    segoff_by = np.zeros(num_batches + 1, dtype=np.int64)
    np.cumsum(counts_by, out=segoff_by[1:])
    seg_idx = (
        np.arange(int(segoff_by[-1]), dtype=np.int64)
        - np.repeat(segoff_by[:-1], counts_by)
        + np.repeat(seg_bounds[by_group], counts_by)
    )
    starts_all = starts_rel[seg_idx] + np.repeat(member_base, counts_by)
    rows_all = seg_row[seg_idx]
    sizes_all = seg_sizes[seg_idx]
    g_ent_off = ent_off[group_bounds]
    g_seg_off = segoff_by[group_bounds]
    g_segs = np.diff(g_seg_off)
    seg_grp = np.repeat(np.arange(num_groups, dtype=np.int64), g_segs)

    # Nearly every segment is a singleton (a destination hit once in its
    # batch), and ``np.add.reduceat`` pays a per-segment cost that dwarfs
    # the adds themselves — so the schedule splits segments by
    # multiplicity: singletons become one direct gather + fancy add, and
    # only the rare duplicate segments keep a (tiny) reduceat. The
    # per-row arithmetic is unchanged, so the split is bitwise neutral.
    single = sizes_all == 1
    single_order_all = order_all[
        starts_all[single] + np.repeat(g_ent_off[:-1], g_segs)[single]
    ]
    single_rows_all = rows_all[single]
    g_single_off = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg_grp[single], minlength=num_groups),
              out=g_single_off[1:])

    dup = ~single
    dup_order_all = order_all[np.repeat(dup, sizes_all)]
    dup_sizes = sizes_all[dup]
    dup_rows_all = rows_all[dup]
    dup_grp = seg_grp[dup]
    g_dup = np.bincount(dup_grp, minlength=num_groups)
    g_dup_off = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(g_dup, out=g_dup_off[1:])
    g_dupent_off = np.zeros(num_groups + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(
            dup_grp, weights=dup_sizes.astype(np.float64), minlength=num_groups
        ).astype(np.int64),
        out=g_dupent_off[1:],
    )
    dup_starts_all = np.zeros(dup_sizes.size, dtype=np.int64)
    np.cumsum(dup_sizes[:-1], out=dup_starts_all[1:])
    dup_starts_all -= np.repeat(g_dupent_off[:-1], g_dup)

    compiled: list[list[tuple]] = [[] for _ in range(int(q_step.max()) + 1)]
    keys = uniq_g.tolist()
    gb = group_bounds.tolist()
    e_off = g_ent_off.tolist()
    s_off = g_single_off.tolist()
    de_off = g_dupent_off.tolist()
    d_off = g_dup_off.tolist()
    nums = group_num.tolist()
    for g in range(num_groups):
        key, shared = divmod(keys[g], 2)
        k = key % kmax
        n = (key // kmax) % nmax
        compiled[key // (kmax * nmax)].append(
            (
                bucket_by[gb[g] : gb[g + 1]],
                n,
                k,
                bool(shared),
                block_all[e_off[g] : e_off[g + 1]].reshape(nums[g], 2 * n + k),
                single_order_all[s_off[g] : s_off[g + 1]],
                single_rows_all[s_off[g] : s_off[g + 1]],
                dup_order_all[de_off[g] : de_off[g + 1]],
                dup_starts_all[d_off[g] : d_off[g + 1]],
                dup_rows_all[d_off[g] : d_off[g + 1]],
            )
        )

    schedule = _ChunkSchedule()
    schedule.stacked = stacked
    schedule.compiled = compiled
    schedule.emb_src = emb_src
    schedule.ctx_src = ctx_src
    schedule.emb_bounds = emb_bounds
    schedule.ctx_bounds = ctx_bounds
    schedule.num_emb = num_emb
    return schedule


def _execute_chunk(
    schedule: _ChunkSchedule, spec: LocalUpdateSpec
) -> list[float]:
    """Run a compiled chunk schedule; returns per-bucket summed losses."""
    stacked = schedule.stacked
    compiled = schedule.compiled
    width = stacked.shape[1]
    dtype = stacked.dtype
    kernel = _loss_kernel(spec.loss_name, spec.num_locations)

    # One set of working buffers, sized to the largest group; every
    # executed step carves contiguous views out of these.
    gather_max = logits_max = work_max = singles_max = 0
    num_buckets = 0
    for step_groups in compiled:
        for group in step_groups:
            num = group[4].shape[0]
            n, k, shared = group[1:4]
            m = 2 * n + k
            gather_max = max(gather_max, num * m)
            # (B, 1 + neg, n) logits: neg = k shared, k / n per pair.
            logits_max = max(logits_max, num * (n + (k * n if shared else k)))
            work_max = max(work_max, num * n)
            singles_max = max(singles_max, group[5].size)
            num_buckets = max(num_buckets, int(group[0].max()) + 1)
    scratch = (
        np.empty((gather_max, width), dtype=dtype),
        np.empty(logits_max, dtype=dtype),
        np.empty((work_max, width), dtype=dtype),
        np.empty((gather_max, width), dtype=dtype),
        np.empty((singles_max, width), dtype=dtype),
    )

    # Buckets accumulate their batch losses in local-step order — the
    # same float64 summation order the single-bucket loop uses.
    losses = [0.0] * num_buckets
    learning_rate = spec.learning_rate
    for step_groups in compiled:
        for group in step_groups:
            batch_losses = _grouped_step(
                stacked, group, kernel, learning_rate, scratch
            )
            for bucket, batch_loss in zip(group[0].tolist(), batch_losses):
                losses[bucket] += batch_loss
    return losses


def _finalize_chunk(
    schedule: _ChunkSchedule,
    theta,
    spec: LocalUpdateSpec,
    losses: list[float],
    batch_counts: list[int],
) -> list[BucketDelta]:
    """Promote, clip, and wrap every bucket's result as a delta.

    The float64 promotion (``trained - theta``) runs as one batched pass
    over the whole chunk; clipping stays the shared per-bucket
    :func:`clip_bucket_delta` call on each bucket's slice so its float64
    reduction order — and hence the sensitivity bound — is untouched.
    """
    dim = int(theta[EMBEDDING].shape[1])
    stacked_emb = schedule.stacked[: schedule.num_emb]
    stacked_ctx = schedule.stacked[schedule.num_emb :]
    emb_src = schedule.emb_src
    ctx_src = schedule.ctx_src
    # The float64 theta gathers double as the output buffers: subtracting
    # into them (reversed via negation-free ``subtract(trained, theta)``)
    # avoids a second chunk-sized float64 allocation per tensor.
    emb_delta = theta[EMBEDDING].take(emb_src, 0)
    np.subtract(stacked_emb[:, :dim], emb_delta, out=emb_delta)
    ctx_delta = theta[CONTEXT].take(ctx_src, 0)
    np.subtract(stacked_ctx[:, :dim], ctx_delta, out=ctx_delta)
    bias_delta = theta[BIAS].take(ctx_src, 0)
    np.subtract(stacked_ctx[:, dim], bias_delta, out=bias_delta)

    shapes = {name: theta[name].shape for name in TENSOR_NAMES}
    emb_bounds = schedule.emb_bounds
    ctx_bounds = schedule.ctx_bounds
    deltas: list[BucketDelta] = []
    for index, num_batches in enumerate(batch_counts):
        e0, e1 = int(emb_bounds[index]), int(emb_bounds[index + 1])
        c0, c1 = int(ctx_bounds[index]), int(ctx_bounds[index + 1])
        rows = {
            EMBEDDING: emb_src[e0:e1],
            CONTEXT: ctx_src[c0:c1],
            BIAS: ctx_src[c0:c1].copy(),
        }
        values = {
            EMBEDDING: emb_delta[e0:e1],
            CONTEXT: ctx_delta[c0:c1],
            BIAS: bias_delta[c0:c1],
        }
        unclipped_norm = clip_bucket_delta(
            values, spec.clip_bound, spec.clipping
        )
        deltas.append(
            BucketDelta(
                rows=rows,
                values=values,
                shapes=shapes,
                mean_loss=losses[index] / num_batches,
                num_batches=num_batches,
                unclipped_norm=unclipped_norm,
            )
        )
    return deltas


def _grouped_step(
    stacked: np.ndarray,
    group: tuple,
    kernel: LossKernel,
    learning_rate: float,
    scratch: tuple,
) -> list[float]:
    """One local-SGD step of one compiled shape group as batched math.

    The step batched over one extra leading axis (one member per bucket):
    one gather returns the whole ``(B, m, dim + 1)`` row block per bucket,
    and the logits land in one ``(B, 1 + neg, n)`` block — candidate axis
    in the middle, one example per column — that the loss kernel turns
    into the per-example gradient in place. Shared negatives are a
    ``(B, k, dim + 1)`` block, so both directions run as one batched GEMM
    each; per-pair negatives are a ``(B, n, neg, dim + 1)`` block
    contracted per example. Duplicate scatter destinations merge through
    the precompiled singleton/duplicate schedule, and fancy-index adds
    apply every bucket's update (segment rows are unique across the group
    because per-bucket row ranges are disjoint). Returns the per-member
    batch losses.
    """
    _, n, k, shared, block_idx, single_order, single_rows = group[:7]
    dup_order, dup_starts, dup_rows = group[7:]
    num = block_idx.shape[0]
    m = 2 * n + k
    width = stacked.shape[1]
    dim = width - 1
    neg_count = k if shared else k // n

    gathered = scratch[0][: num * m].reshape(num, m, width)
    stacked.take(block_idx, 0, gathered, "clip")
    hidden = gathered[:, :n]
    ctx = gathered[:, n : 2 * n]

    # The trailing bias/ones column makes these dot products the biased
    # logits directly: W_t . Wc_c + b_c (idea 2 of the module docstring).
    logits = scratch[1][: num * (1 + neg_count) * n].reshape(
        num, 1 + neg_count, n
    )
    work = scratch[2][: num * n].reshape(num, n, width)
    np.einsum("bnd,bnd->bn", hidden, ctx, out=logits[:, 0])
    if shared:
        neg = gathered[:, 2 * n :]  # (B, k, width)
        np.matmul(neg, hidden.transpose(0, 2, 1), out=logits[:, 1:])
    else:
        neg = gathered[:, 2 * n :].reshape(num, n, neg_count, width)
        np.einsum("bnd,bnkd->bkn", hidden, neg, out=logits[:, 1:])

    # The loss kernel leaves d(loss_i)/d(logits) in place; the -lr/n
    # update scale folds into it in one multiply.
    batch_losses = kernel(logits)
    grad = np.multiply(logits, stacked.dtype.type(-learning_rate / n), out=logits)
    grad_positive = grad[:, 0][:, :, None]  # (B, n, 1)
    grad_negative = grad[:, 1:]  # (B, neg, n)

    # Update block [d_target | d_context | d_negative].
    vals = scratch[3][: num * m].reshape(num, m, width)
    np.multiply(ctx, grad_positive, out=vals[:, :n])
    if shared:
        np.matmul(grad_negative.transpose(0, 2, 1), neg, out=work)
    else:
        np.einsum("bkn,bnkd->bnd", grad_negative, neg, out=work)
    vals[:, :n] += work
    # Zero the d_target block's trailing column: every entry a target-row
    # segment sums is then an exact 0.0, so the constant-1 column survives
    # without any per-segment masking.
    vals[:, :n, dim] = 0.0
    np.multiply(hidden, grad_positive, out=vals[:, n : 2 * n])
    if shared:
        np.matmul(grad_negative, hidden, out=vals[:, 2 * n :])
    else:
        np.multiply(
            hidden[:, :, None],
            grad_negative.transpose(0, 2, 1)[..., None],
            out=vals[:, 2 * n :].reshape(num, n, neg_count, width),
        )

    # Scatter: singleton segments are one gather + one fancy add; the
    # rare duplicate segments merge through a small reduceat first. The
    # two row sets are disjoint, so the per-row arithmetic matches the
    # single reduceat-over-everything formulation bit for bit.
    vals_flat = vals.reshape(num * m, width)
    singles = scratch[4][: single_order.size]
    vals_flat.take(single_order, 0, singles, "clip")
    _add_rows(stacked, single_rows, singles)
    if dup_rows.size:
        merged = np.add.reduceat(vals_flat.take(dup_order, 0), dup_starts, 0)
        _add_rows(stacked, dup_rows, merged)
    return batch_losses.tolist()
