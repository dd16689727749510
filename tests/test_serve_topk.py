"""Property tests for the serve layer's top-K kernel (``top_k_rows``).

The exact backend ranks through :func:`repro.serve.item_index.top_k_rows`,
and the IVF backend through its scalar path ``_exact_top_k`` with catalogue
ids.  These tests pin both to the brute-force stable ranking on the inputs
where a partial sort goes wrong most easily: heavy score ties at the K-th
boundary, ``k`` past the catalogue, exclusions, both float widths and
batches that span several row chunks.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import IVFIndex, ItemIndex, brute_force_ranking
from repro.serve import item_index
from repro.serve.item_index import _exact_top_k, top_k_rows

DTYPES = st.sampled_from([np.float32, np.float64])


@st.composite
def tied_scores(draw, max_rows=7, max_items=12):
    """An integer-valued (batch, n) score matrix drawn from a few values."""
    batch = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_items))
    levels = draw(st.integers(1, 4))  # 1 level: every score tied
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, levels, size=(batch, n)).astype(np.float64), rng


def reference_top_k(scores, k, exclude):
    """Brute-force stable ranking minus the excluded items, -1/-inf padded."""
    batch, n = scores.shape
    k = min(k, n)
    items = np.full((batch, k), -1, dtype=np.int64)
    top = np.full((batch, k), -np.inf, dtype=scores.dtype)
    for row in range(batch):
        ranked = [i for i in brute_force_ranking(scores[row])
                  if i not in set(exclude[row])][:k]
        items[row, :len(ranked)] = ranked
        top[row, :len(ranked)] = scores[row, ranked]
    return items, top


def exact_index_over(scores):
    """An exact index whose score matrix for ``users=scores`` is ``scores``.

    Identity item latents make ``scores @ I`` exact in either float width,
    so the kernel sees precisely the drawn (tied) matrix.
    """
    return ItemIndex(np.eye(scores.shape[1], dtype=scores.dtype))


@settings(max_examples=80, deadline=None)
@given(tied_scores(), st.integers(1, 14), DTYPES, st.booleans(),
       st.integers(1, 40))
def test_exact_top_k_matches_brute_force(drawn, k, dtype, use_exclude,
                                         chunk_elements):
    scores, rng = drawn
    scores = scores.astype(dtype)
    batch, n = scores.shape
    k = min(k, n + 2)
    exclude = [rng.choice(n, size=rng.integers(0, n + 1), replace=False)
               if use_exclude else [] for _ in range(batch)]
    # A small chunk bound splits the batch into several row chunks,
    # including one-row chunks.
    with mock.patch.object(item_index, "_TOP_K_CHUNK_ELEMENTS", chunk_elements):
        items, top = exact_index_over(scores).top_k(
            scores, k, exclude=exclude if use_exclude else None)
    want_items, want_scores = reference_top_k(scores, k, exclude)
    assert top.dtype == dtype
    np.testing.assert_array_equal(items, want_items)
    np.testing.assert_array_equal(top, want_scores)


@settings(max_examples=80, deadline=None)
@given(tied_scores(), st.integers(1, 12), DTYPES)
def test_scalar_path_breaks_ties_by_given_ids(drawn, k, dtype):
    scores, rng = drawn
    scores = scores.astype(dtype)
    n = scores.shape[1]
    k = min(k, n)
    for row in scores:
        # Catalogue ids in place of positions, as the IVF backend passes.
        ids = rng.permutation(10 * n)[:n]
        order = np.lexsort((ids, -row.astype(np.float64)))
        np.testing.assert_array_equal(_exact_top_k(row, k, ids), order[:k])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.booleans())
def test_full_probe_ivf_equals_exact_on_tied_catalogue(seed, k, use_exclude):
    rng = np.random.default_rng(seed)
    # Few distinct latent rows, each repeated: most scores are exact ties.
    base = rng.integers(-2, 3, size=(5, 3)).astype(np.float64)
    catalogue = base[rng.integers(0, 5, size=40)]
    queries = rng.integers(-2, 3, size=(6, 3)).astype(np.float64)
    exclude = ([rng.choice(40, size=rng.integers(0, 10), replace=False)
                for _ in range(6)] if use_exclude else None)
    ivf = IVFIndex(catalogue, num_clusters=4, seed=seed % 97)
    ivf.nprobe = ivf.num_clusters
    exact_items, exact_scores = ItemIndex(catalogue).top_k(queries, k,
                                                           exclude=exclude)
    ivf_items, ivf_scores = ivf.top_k(queries, k, exclude=exclude)
    np.testing.assert_array_equal(ivf_items, exact_items)
    np.testing.assert_array_equal(ivf_scores, exact_scores)


@pytest.mark.parametrize("batch", [1, 5])
def test_nan_scores_refused_by_both_backends(batch):
    rng = np.random.default_rng(3)
    catalogue = rng.standard_normal((40, 4))
    queries = rng.standard_normal((batch, 4))
    queries[batch - 1, 1] = np.nan
    for index in (ItemIndex(catalogue), IVFIndex(catalogue, num_clusters=4)):
        with pytest.raises(ValueError, match="NaN"):
            index.top_k(queries, 3)
    # A NaN item latent is refused too, even when only one slot is ranked.
    catalogue[11, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        ItemIndex(catalogue).top_k(rng.standard_normal((batch, 4)), 1)


def test_nan_refused_when_the_boundary_count_looks_forced():
    # The NaN takes a top slot, and the tie outside it makes the count of
    # scores >= the K-th best come out at exactly k all the same.
    scores = np.array([[1.0, np.nan, 1.0], [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="NaN"):
        top_k_rows(scores, 2)


class TestExcludeBounds:
    """Out-of-range ``exclude`` ids are refused alike by both backends."""

    @pytest.mark.parametrize("bad", [-1, 20, 1000])
    @pytest.mark.parametrize("backend", ["exact", "ivf"])
    def test_out_of_range_exclude_rejected(self, backend, bad):
        rng = np.random.default_rng(5)
        catalogue = rng.standard_normal((20, 4))
        index = (ItemIndex(catalogue) if backend == "exact"
                 else IVFIndex(catalogue, num_clusters=4, nprobe=4))
        queries = rng.standard_normal((2, 4))
        with pytest.raises(ValueError, match="exclude item index out of range"):
            index.top_k(queries, 5, exclude=[[3], [bad]])
