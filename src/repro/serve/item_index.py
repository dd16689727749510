"""Precomputed target-domain item index for cold-start serving.

CDRIB scores a cold-start user by an inner product between the user's
source-domain latent and every target-domain item latent (Section III of the
paper).  The item side of that product is *static per checkpoint*: it only
changes when the model parameters change.  :class:`ItemIndex` therefore
encodes all target-domain items once (a single fused no-grad propagation
pass) and answers top-K queries against the cached matrix with a partial
sort (``np.argpartition``) instead of ranking the full catalogue.

Tie handling is exact: results are ordered by descending score with ties
broken by ascending item index, which is precisely the order produced by a
brute-force stable full ranking.  :func:`top_k_rows` ranks a whole request
batch at once and sends the rare row whose K-th boundary is a score tie to
a scalar path that picks the tied items explicitly, so a tie that straddles
the K-th position never depends on ``argpartition``'s arbitrary internal
ordering.  The IVF backend ranks each query's candidates with that same
scalar path, so both backends share one copy of the tie rule.

Retrieval is *pluggable*: :class:`ItemIndex` is the ``"exact"`` reference
implementation of the :class:`TopKIndex` protocol; the approximate IVF
backend (``"ivf"``) and the backend registry live in
:mod:`repro.serve.ann`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

try:  # Python >= 3.8
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - typing_extensions fallback unused
    Protocol = object

    def runtime_checkable(cls):
        """Identity decorator when typing.Protocol is unavailable."""
        return cls

from ..core.cdrib import CDRIB

#: Upper bound on the scores :func:`top_k_rows` ranks per chunk of rows.
#: ``argpartition`` materialises an int64 index array as large as its input,
#: so ranking a whole (batch × catalogue) matrix at once would double the
#: score matrix's memory; 2**18 scores cap the transient arrays at a few MB,
#: while a serving batch (256 users × a few hundred items) is one chunk.
_TOP_K_CHUNK_ELEMENTS = 1 << 18


@runtime_checkable
class TopKIndex(Protocol):
    """Structural protocol every retrieval backend implements.

    A backend owns one domain's item-latent catalogue and answers batched
    top-K queries against it.  ``ItemIndex`` (``backend="exact"``) is the
    brute-force reference; approximate backends (e.g. the IVF index in
    :mod:`repro.serve.ann`) may return a different *set* of items, but the
    scores of every item they surface must come from the same inner product
    over the same latents, and rows must be ordered by descending score with
    ties broken by ascending item index — so downstream consumers
    (:class:`~repro.serve.ColdStartServer`, the evaluation scorer bridge)
    never need to know which backend is plugged in.
    """

    #: Registry name of the backend (``"exact"``, ``"ivf"``, ...).
    backend: str
    #: Item latents in catalogue order, shape (num_items, dim).
    item_latents: np.ndarray
    #: Domain the catalogue belongs to (bookkeeping only).
    domain: str

    @property
    def num_items(self) -> int:
        """Number of items in the catalogue."""

    @property
    def dim(self) -> int:
        """Latent dimensionality."""

    def build_options(self) -> dict:
        """The constructor options needed to rebuild an equivalent index."""

    def scores(self, user_latents: np.ndarray) -> np.ndarray:
        """Exact inner-product scores of shape (batch, num_items)."""

    def top_k(self, user_latents: np.ndarray, k: int,
              exclude: Optional[list] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(items, scores)`` per user, padded with -1/-inf."""


class ItemIndex:
    """Cached latent representations of one domain's item catalogue.

    Parameters
    ----------
    item_latents:
        Array of shape (num_items, dim) — posterior-mean item latents.
    domain:
        Name of the domain the items belong to (bookkeeping only).
    """

    backend = "exact"

    def __init__(self, item_latents: np.ndarray, domain: str = ""):
        self.item_latents = prepare_item_latents(item_latents)
        self.domain = domain

    @classmethod
    def build(cls, model: CDRIB, domain: str) -> "ItemIndex":
        """Encode every item of ``domain`` with the model's fused no-grad pass."""
        return cls(model.encode_items(domain), domain=domain)

    @property
    def num_items(self) -> int:
        """Number of items in the catalogue."""
        return int(self.item_latents.shape[0])

    @property
    def dim(self) -> int:
        """Latent dimensionality."""
        return int(self.item_latents.shape[1])

    def build_options(self) -> dict:
        """Exact search has no tunables; rebuilds need only the latents."""
        return {}

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def scores(self, user_latents: np.ndarray) -> np.ndarray:
        """Inner-product scores of shape (batch, num_items).

        The score dtype follows numpy promotion of the query and index
        dtypes (float32 queries against a float32 index stay float32).
        """
        user_latents = np.asarray(user_latents)
        if not np.issubdtype(user_latents.dtype, np.floating):
            user_latents = user_latents.astype(np.float64)
        return np.atleast_2d(user_latents) @ self.item_latents.T

    def top_k(self, user_latents: np.ndarray, k: int,
              exclude: Optional[list] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` items per user, ranked batch-wide by :func:`top_k_rows`.

        Parameters
        ----------
        user_latents:
            (batch, dim) user latents.
        k:
            Number of items to return per user (clamped to the catalogue size).
        exclude:
            Optional per-user sequences of item indices to remove from the
            candidates (e.g. items the user already interacted with).  Every
            index must lie in ``[0, num_items)`` (:func:`validate_exclude`).

        Returns
        -------
        ``(items, scores)`` arrays of shape (batch, k), each row ordered by
        descending score, ties broken by ascending item index — identical to a
        brute-force stable full ranking.  When ``exclude`` leaves a row with
        fewer than ``k`` candidates, its overflow slots are padded with item
        ``-1`` and score ``-inf``; excluded items are never returned.  The
        score dtype follows the query/index promotion (float32 stays
        float32).

        NaN scores are *rejected* (:class:`ValueError`) rather than ranked:
        ``argpartition``'s boundary-threshold comparison and ``lexsort``
        silently misorder NaNs, so a NaN in a user or item latent would
        otherwise produce a confidently wrong list.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        score_matrix = self.scores(user_latents)
        excluded = validate_exclude(exclude, score_matrix.shape[0],
                                    self.num_items)
        banned = None
        if excluded is not None:
            rows = np.repeat(np.arange(len(excluded)),
                             [row.size for row in excluded])
            banned = (rows, np.concatenate(excluded))
            # scores() returns a fresh matrix, so banning in place is safe.
            score_matrix[banned] = -np.inf
        items = top_k_rows(score_matrix, min(k, self.num_items))
        scores = np.take_along_axis(score_matrix, items, axis=1)
        if banned is not None:
            mask = np.zeros(score_matrix.shape, dtype=bool)
            mask[banned] = True
            overflow = np.take_along_axis(mask, items, axis=1)
            items[overflow] = -1
            scores[overflow] = -np.inf
        return items, scores


def prepare_item_latents(item_latents: np.ndarray) -> np.ndarray:
    """Normalise a catalogue latent matrix for indexing (shared by backends).

    Preserves the model's floating dtype: force-casting float32 latents to
    float64 would silently double the index's resident memory.  Non-float
    inputs (e.g. integer test fixtures) still become float64, and the result
    is always a C-contiguous 2-D array.
    """
    latents = np.asarray(item_latents)
    if not np.issubdtype(latents.dtype, np.floating):
        latents = latents.astype(np.float64)
    latents = np.ascontiguousarray(latents)
    if latents.ndim != 2:
        raise ValueError(f"item_latents must be 2-D, got shape {latents.shape}")
    return latents


def validate_exclude(exclude: Optional[list], batch: int,
                     num_items: int) -> Optional[List[np.ndarray]]:
    """Check ``top_k``'s per-user exclusion lists (shared by backends).

    Returns one int64 array per user, or ``None`` when nothing is excluded.
    An index outside ``[0, num_items)`` raises :class:`ValueError`: a stray
    ``-1`` (the padding value of :meth:`TopKIndex.top_k`) would otherwise
    wrap to the *last* catalogue item under fancy indexing, and any other
    out-of-range id names no item at all.
    """
    if exclude is None:
        return None
    if len(exclude) != batch:
        raise ValueError("exclude must hold one sequence per user")
    banned = [np.asarray(list(row), dtype=np.int64) for row in exclude]
    flat = np.concatenate(banned) if banned else np.empty(0, dtype=np.int64)
    if flat.size == 0:
        return None
    if flat.min() < 0 or flat.max() >= num_items:
        raise ValueError(
            f"exclude item index out of range (num_items={num_items}); got "
            f"values in [{flat.min()}, {flat.max()}] — is a -1 padding "
            f"sentinel leaking into exclude?")
    return banned


def top_k_rows(scores: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's ``k`` best scores, in the tie rule's order.

    The exact backend's top-K kernel.  Rows are ordered by descending score
    with ties broken by ascending column index.  ``k`` must lie in
    ``[0, scores.shape[1]]``.

    Rows are ranked in chunks of at most :data:`_TOP_K_CHUNK_ELEMENTS`
    scores.  Per chunk there is one ``argpartition``, one vectorised check
    that every row's K-th boundary is unambiguous (exactly ``k`` scores are
    >= the K-th best, so the selected *set* is forced) and one row-wise
    ``lexsort`` by (-score, index).  A row whose boundary score is shared by
    more items than there are free slots, or that holds a NaN, goes through
    the scalar :func:`_exact_top_k` instead, which picks the tied items by
    ascending index and refuses NaN scores.  So does a chunk of one row (a
    single request, or a catalogue of more than half the chunk bound),
    where the batched path costs more: median per call on a 2-core Xeon VM,
    30-50 vs 16 us at 300 items, 73 vs 28-43 us at 8000, 720 vs 630 us at
    200k.
    """
    batch, n = scores.shape
    top = np.empty((batch, k), dtype=np.int64)
    if k == 0:
        return top
    rows_per_chunk = max(1, _TOP_K_CHUNK_ELEMENTS // n)
    for start in range(0, batch, rows_per_chunk):
        block = scores[start:start + rows_per_chunk]
        if block.shape[0] == 1:
            top[start] = _exact_top_k(block[0], k)
            continue
        if k < n:
            part = np.argpartition(block, n - k, axis=1)[:, n - k:]
            part_scores = np.take_along_axis(block, part, axis=1)
            # argpartition leaves the K-th best score first in the top part.
            forced = np.count_nonzero(block >= part_scores[:, :1], axis=1) == k
        else:
            part = np.broadcast_to(np.arange(n), block.shape)
            part_scores = block
            forced = np.ones(block.shape[0], dtype=bool)
        # Partitioning sorts NaN above every number, so a row holding a NaN
        # always has one among its selected scores.
        scalar = ~forced | np.isnan(part_scores).any(axis=1)
        order = np.lexsort((part, -part_scores), axis=1)
        top[start:start + block.shape[0]] = np.take_along_axis(part, order,
                                                               axis=1)
        for row in np.flatnonzero(scalar):
            top[start + row] = _exact_top_k(block[row], k)
    return top


def _exact_top_k(scores: np.ndarray, k: int,
                 ids: Optional[np.ndarray] = None) -> np.ndarray:
    """Positions of the ``k`` best of one score row, ties by ascending id.

    The scalar path of :func:`top_k_rows`, and the IVF backend's ranking of
    each query's candidates, where ``ids`` holds their catalogue ids (it
    defaults to the positions themselves).  ``np.argpartition`` alone is not
    tie-stable at the K-th boundary, so when more items share the boundary
    score than there are slots left, the boundary is resolved explicitly:
    every item strictly above the threshold is kept, and the remaining slots
    are filled with the lowest-id items *at* the threshold.  The selected
    set is then ordered by (-score, id).

    NaN scores are rejected: a NaN threshold makes both boundary comparisons
    (``>`` and ``==``) vacuously false, silently shrinking the selection,
    and ``lexsort`` orders NaNs arbitrarily — the contract (pinned by
    ``tests/test_serve.py``) is to raise instead.
    """
    if np.isnan(scores).any():
        raise ValueError(
            "cannot rank scores containing NaN (NaN in user or item "
            "latents?): argpartition/lexsort order NaN silently wrong")
    n = scores.shape[0]
    if k >= n:
        selected = np.arange(n)
    else:
        selected = np.argpartition(scores, n - k)[n - k:]
        threshold = scores[selected[0]]
        if np.count_nonzero(scores >= threshold) > k:
            above = np.flatnonzero(scores > threshold)
            at = np.flatnonzero(scores == threshold)  # ascending positions
            if ids is not None:
                at = at[np.argsort(ids[at], kind="stable")]
            selected = np.concatenate([above, at[: k - above.shape[0]]])
    selected_ids = selected if ids is None else ids[selected]
    order = np.lexsort((selected_ids, -scores[selected]))
    return selected[order]


def brute_force_ranking(scores: np.ndarray) -> np.ndarray:
    """Full stable ranking by (-score, index) — the reference for tests."""
    indices = np.arange(scores.shape[0])
    order = np.lexsort((indices, -np.asarray(scores, dtype=np.float64)))
    return indices[order]
