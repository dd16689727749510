"""Seeded workload inputs, generated here rather than by the program.

Every input a workload feeds the program comes from this module and from
the ``--seed`` argument alone, so a later change to the program's own
traffic or catalogue generators cannot silently change a workload.  Each
input draws from its own child stream of the seed, so adding a new input
never shifts the draws of an existing one.
"""

from __future__ import annotations

import numpy as np

# Seed reserved for confirming a claimed gain: never use it while tuning a
# change, then check the claim on it once.
HELD_OUT_SEED = 9973

# Skew of the serve-hot user stream: HOT_SHARE of the users draw
# HOT_TRAFFIC of the requests.
HOT_SHARE = 0.2
HOT_TRAFFIC = 0.8

# Geometry of the retrieval catalogue: items and queries scatter around
# CATALOGUE_CENTERS taste centres with Gaussian noise of CATALOGUE_NOISE.
CATALOGUE_CENTERS = 512
CATALOGUE_NOISE = 0.25

# Child-stream tags: one per kind of input.
_STREAMS = {"skewed_users": 1, "uniform_users": 2, "schedule": 3,
            "catalogue": 4, "queries": 5, "warm_users": 6}


def rng_for(seed: int, stream: str, part: int = 0) -> np.random.Generator:
    """Independent generator for one input ``stream`` (and ``part``) of a seed."""
    return np.random.default_rng([int(seed), _STREAMS[stream], int(part)])


def skewed_users(seed: int, num_users: int, count: int, part: int = 0
                 ) -> np.ndarray:
    """``count`` user ids where HOT_SHARE of users draw HOT_TRAFFIC.

    The hot set is a seeded random subset, so it is not simply the lowest
    ids.  Within the hot and the cold set users are uniform.
    """
    # The hot set depends on the seed only, not on ``part``, so every phase
    # of one run shares the same popular users.
    order = rng_for(seed, "skewed_users").permutation(num_users)
    num_hot = min(num_users - 1, max(1, int(round(HOT_SHARE * num_users))))
    hot, cold = order[:num_hot], order[num_hot:]
    rng = rng_for(seed, "skewed_users", part + 1)
    pick_hot = rng.random(count) < HOT_TRAFFIC
    users = np.where(pick_hot, rng.choice(hot, count), rng.choice(cold, count))
    return users.astype(np.int64)


def uniform_users(seed: int, num_users: int, count: int, part: int = 0
                  ) -> np.ndarray:
    """``count`` user ids drawn uniformly over all ``num_users``."""
    return rng_for(seed, "uniform_users", part).integers(
        0, num_users, count).astype(np.int64)


def warm_users(seed: int, num_users: int, count: int) -> np.ndarray:
    """``count`` distinct user ids used to pre-fill a partial cache."""
    return rng_for(seed, "warm_users").permutation(num_users)[:count]


def poisson_schedule(seed: int, rate: float, count: int, part: int = 0
                     ) -> np.ndarray:
    """Due times (seconds from the start) of ``count`` Poisson arrivals."""
    gaps = rng_for(seed, "schedule", part).exponential(1.0 / rate, count)
    return np.cumsum(gaps) - gaps[0]


def clustered_catalogue(seed: int, num_items: int, dim: int,
                        num_queries: int):
    """Seeded (catalogue, queries) latents clustered like trained latents.

    Items scatter around the taste centres and queries point at the same
    centres, which is the geometry an inverted-file index relies on.
    """
    rng = rng_for(seed, "catalogue")
    centers = rng.standard_normal((CATALOGUE_CENTERS, dim))
    catalogue = (centers[rng.integers(0, CATALOGUE_CENTERS, num_items)]
                 + CATALOGUE_NOISE * rng.standard_normal((num_items, dim)))
    query_rng = rng_for(seed, "queries")
    queries = (centers[query_rng.integers(0, CATALOGUE_CENTERS, num_queries)]
               + CATALOGUE_NOISE * query_rng.standard_normal((num_queries, dim)))
    return catalogue, queries
