"""Batched cold-start recommendation server.

The serving hot path of the CDRIB reproduction: a cold-start user observed
only in the source domain is encoded by the source-domain VBGE and scored
directly against the target domain's precomputed :class:`~repro.serve.ItemIndex`
— no mapping function, exactly the paper's inference scheme, but vectorized
over request batches.

Per request batch the server

1. looks each user up in an LRU latent cache,
2. encodes all cache misses in a *single* no-grad VBGE pass
   (``CDRIB.encode_users_batch``),
3. returns top-K items per user via one batch-wide partial sort against the
   item index.

User latents are bit-identical to the eval-cache path; scores agree with
``CDRIB.cold_start_scores`` up to float rounding (matmul vs. elementwise
reduction order), and served top-K lists are identical to a brute-force
stable full ranking of the catalogue, including score ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.cdrib import CDRIB
from .ann import build_index
from .cache import LRUCache
from .item_index import TopKIndex


@dataclass
class Recommendation:
    """Top-K recommendation list for one user."""

    user: int
    items: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return int(self.items.shape[0])


@dataclass
class ServerStats:
    """Cumulative serving counters (exposed for monitoring/benchmarks).

    The contract (pinned by ``tests/test_serve.py``):

    * ``requests`` counts vectorized :meth:`ColdStartServer.recommend`
      calls.  A :class:`~repro.serve.RequestBatcher` flush issues one such
      call *per distinct* ``k`` in the flushed queue, so ``requests`` can
      exceed ``batcher.batches_flushed`` for mixed-``k`` traffic.
    * ``users_served`` counts request slots (duplicates included);
      ``users_encoded`` counts *unique* users that went through the VBGE
      encoder (duplicates within a batch are encoded once).
    * Cache hit/miss counts live on the server's
      :class:`~repro.serve.LRUCache` (``server.cache.hits`` /
      ``server.cache.hit_rate``) — the cache is the single source of truth
      for them, and it counts per *lookup*: every occurrence of a not-yet-
      cached user in a batch counts as its own miss, even though the batch
      encodes that user only once.
    """

    requests: int = 0
    users_served: int = 0
    users_encoded: int = 0


class ColdStartServer:
    """Serve top-K target-domain recommendations for source-domain users.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.CDRIB` model (used read-only).
    source, target:
        Transfer direction: users are encoded in ``source``, items come from
        ``target``.
    top_k:
        Default recommendation list length.
    cache_capacity:
        Capacity of the user-latent LRU cache (0 disables caching).
    exclude_seen:
        When True and ``source == target``, items the user interacted with in
        training are removed from the candidates.  (For genuine cold-start
        users the target-domain history is empty by construction, so this
        mainly matters for in-domain serving.)
    index_backend:
        Retrieval backend name from the :mod:`repro.serve.ann` registry:
        ``"exact"`` (default, brute force) or ``"ivf"`` (approximate,
        catalogue-scale).
    index_options:
        Backend constructor options (e.g. ``{"nprobe": 32}`` for IVF).
    index:
        A prebuilt :class:`~repro.serve.TopKIndex` (e.g. loaded with
        :func:`repro.serve.load_index`) to serve from instead of encoding
        the catalogue; must match the target domain's catalogue size.
    """

    def __init__(self, model: CDRIB, source: str, target: str,
                 top_k: int = 10, cache_capacity: int = 10000,
                 exclude_seen: bool = False, index_backend: str = "exact",
                 index_options: Optional[dict] = None,
                 index: Optional[TopKIndex] = None):
        self.model = model
        self.source = source
        self.target = target
        self.top_k = int(top_k)
        self.exclude_seen = bool(exclude_seen)
        if index is not None:
            expected = model._domain_parts(target)[3].num_items
            if index.num_items != expected:
                raise ValueError(
                    f"prebuilt index holds {index.num_items} items but target "
                    f"domain {target!r} has {expected}")
            # Size alone cannot tell a stale artifact (e.g. saved from an
            # older checkpoint of the same scenario) from the right one:
            # compare against the model's own item latents.  One no-grad
            # encode pass at construction — cheap next to the k-means build
            # the prebuilt index skips, and it turns silently-wrong top-K
            # lists into a loud error.
            current = model.encode_items(target)
            if (index.item_latents.shape != current.shape
                    or not np.allclose(index.item_latents, current,
                                       rtol=1e-6, atol=1e-8)):
                raise ValueError(
                    f"prebuilt index was built from different item latents "
                    f"than this model encodes for domain {target!r}; "
                    f"rebuild the index from this checkpoint")
            self.index = index
            self._index_backend = index.backend
            self._index_options = index.build_options()
        else:
            self._index_backend = index_backend
            self._index_options = dict(index_options or {})
            self.index = build_index(model, target, backend=index_backend,
                                     **self._index_options)
        self.cache = LRUCache(cache_capacity)
        self.stats = ServerStats()
        self._source_graph = model._domain_parts(source)[3]

    # ------------------------------------------------------------------ #
    # Latent management
    # ------------------------------------------------------------------ #
    def user_latents(self, users: Sequence[int]) -> np.ndarray:
        """Latents for ``users``, encoding every cache miss in one batch."""
        users = np.asarray(users, dtype=np.int64)
        if users.size and (users.min() < 0
                           or users.max() >= self._source_graph.num_users):
            raise ValueError(
                f"user index out of range for source domain {self.source!r} "
                f"(num_users={self._source_graph.num_users})"
            )
        # Follow the index's floating dtype: a float32 checkpoint must serve
        # float32 end-to-end (hardcoding float64 here would silently double
        # the latent-buffer and cache memory on the hot path).
        latents = np.empty((users.shape[0], self.index.dim),
                           dtype=self.index.item_latents.dtype)
        miss_positions: List[int] = []
        for position, user in enumerate(users):
            cached = self.cache.get(int(user))
            if cached is None:
                miss_positions.append(position)
            else:
                latents[position] = cached
        if miss_positions:
            miss_users = users[miss_positions]
            # One vectorized VBGE pass covers every miss; duplicate users in
            # one batch are encoded once.
            unique_users, inverse = np.unique(miss_users, return_inverse=True)
            encoded = np.asarray(
                self.model.encode_users_batch(self.source, unique_users),
                dtype=latents.dtype)
            self.stats.users_encoded += int(unique_users.shape[0])
            for offset, position in enumerate(miss_positions):
                latents[position] = encoded[inverse[offset]]
            for row, user in zip(encoded, unique_users):
                # put() copies on insert, so the batch array is never pinned
                # by a cached row and callers cannot alias cache entries.
                self.cache.put(int(user), row)
        return latents

    def refresh(self) -> None:
        """Rebuild the item index and drop cached user latents.

        Call after the model checkpoint changes (e.g. between training
        epochs in an online-learning loop).  The rebuilt index keeps the
        server's retrieval backend and build options — an IVF server stays
        an IVF server (its quantizer is re-trained on the fresh latents).
        """
        self.index = build_index(self.model, self.target,
                                 backend=self._index_backend,
                                 **self._index_options)
        self.cache.clear()

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def recommend(self, users: Sequence[int],
                  k: Optional[int] = None) -> List[Recommendation]:
        """Top-K recommendations for a batch of source-domain users."""
        users = np.asarray(users, dtype=np.int64)
        k = self.top_k if k is None else int(k)
        latents = self.user_latents(users)
        exclude = None
        if self.exclude_seen and self.source == self.target:
            exclude = [self._source_graph.items_of_user(int(u)) for u in users]
        items, scores = self.index.top_k(latents, k, exclude=exclude)
        self.stats.requests += 1
        self.stats.users_served += int(users.shape[0])
        recommendations = []
        # Only rows holding exclusion padding (-1, see ItemIndex.top_k) need a
        # masked copy; every other row is served as a view of the batch.
        padded = (items < 0).any(axis=1).tolist()
        for user, row_items, row_scores, row_padded in zip(
                users.tolist(), items, scores, padded):
            if row_padded:
                valid = row_items >= 0
                row_items, row_scores = row_items[valid], row_scores[valid]
            recommendations.append(Recommendation(
                user=user, items=row_items, scores=row_scores))
        return recommendations

    def recommend_one(self, user: int, k: Optional[int] = None) -> Recommendation:
        """Convenience wrapper for a single user."""
        return self.recommend([user], k=k)[0]

    def score_pairs(self, users: Sequence[int], items: Sequence[int]) -> np.ndarray:
        """Pairwise scores compatible with the evaluation ``Scorer`` protocol.

        Allows plugging the server (with its caches) straight into
        :class:`~repro.eval.LeaveOneOutEvaluator`.

        Item indices are validated: a stray ``-1`` (the padding value of
        :meth:`TopKIndex.top_k`) would otherwise wrap to the *last* catalogue
        item via fancy indexing and return a confidently wrong score.
        """
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if items.size and (items.min() < 0 or items.max() >= self.index.num_items):
            raise ValueError(
                f"item index out of range for target domain {self.target!r} "
                f"(num_items={self.index.num_items}); got values in "
                f"[{items.min()}, {items.max()}] — is a -1 padding sentinel "
                f"leaking into score_pairs?")
        unique_users, inverse = np.unique(users, return_inverse=True)
        latents = self.user_latents(unique_users)[inverse]
        return np.sum(latents * self.index.item_latents[items], axis=-1)

    def __repr__(self) -> str:
        return (f"ColdStartServer({self.source}->{self.target}, "
                f"items={self.index.num_items}, top_k={self.top_k}, "
                f"index={self._index_backend!r}, cache={self.cache!r})")
