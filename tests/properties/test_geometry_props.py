"""Property-based tests for periodic geometry invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import Box, brute_force_pairs, cell_candidate_pairs, neighbor_pairs

sides = st.floats(5.0, 60.0, allow_nan=False)


def positions_strategy(n_min=2, n_max=30):
    return st.integers(n_min, n_max).flatmap(
        lambda n: arrays(
            np.float64,
            (n, 3),
            elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False),
        )
    )


@given(side=sides, d=arrays(np.float64, (5, 3), elements=st.floats(-500, 500, allow_nan=False)))
def test_minimum_image_within_half_box(side, d):
    box = Box.cubic(side)
    m = box.minimum_image(d)
    assert np.all(np.abs(m) <= side / 2 + 1e-9)


@given(side=sides, pos=positions_strategy())
def test_wrap_idempotent_and_in_range(side, pos):
    box = Box.cubic(side)
    w = box.wrap(pos)
    assert np.all((w >= 0) & (w < side))
    np.testing.assert_allclose(box.wrap(w), w, atol=1e-12)


@given(side=sides, pos=positions_strategy())
def test_distance_symmetric(side, pos):
    box = Box.cubic(side)
    d_ab = box.distance(pos[0], pos[1])
    d_ba = box.distance(pos[1], pos[0])
    assert d_ab == d_ba


@given(
    side=st.floats(10.0, 40.0),
    pos=positions_strategy(4, 25),
    shift=arrays(np.float64, (3,), elements=st.floats(-50, 50, allow_nan=False)),
)
@settings(max_examples=40, deadline=None)
def test_pair_list_translation_invariant(side, pos, shift):
    """Translating everything rigidly leaves the pair set unchanged.

    Pairs sitting exactly on the cutoff boundary are excluded: wrapping
    the translated coordinates rounds differently, so a distance equal
    to the cutoff can legitimately land on either side of the strict
    ``r2 < cutoff2`` test (e.g. atoms 4.0 A apart with cutoff 4.0).
    The invariant being asserted is about the pair *sets*, not about
    float rounding at a measure-zero boundary.
    """
    box = Box.cubic(side)
    cutoff = side / 3.0
    w = box.wrap(pos)
    d = box.minimum_image(w[:, None, :] - w[None, :, :])
    r = np.sqrt(np.sum(d * d, axis=-1))
    iu = np.triu_indices(len(pos), k=1)
    assume(not np.any(np.abs(r[iu] - cutoff) < 1e-9 * max(1.0, cutoff)))
    base = {(min(a, b), max(a, b)) for a, b in zip(*_ij(neighbor_pairs(pos, box, cutoff)))}
    moved = {(min(a, b), max(a, b)) for a, b in zip(*_ij(neighbor_pairs(pos + shift, box, cutoff)))}
    assert base == moved


def _ij(p):
    return p.i, p.j


@given(side=st.floats(12.0, 40.0), pos=positions_strategy(4, 40))
@settings(max_examples=30, deadline=None)
def test_cell_list_equals_brute_force(side, pos):
    box = Box.cubic(side)
    cutoff = side / 3.5
    a = neighbor_pairs(pos, box, cutoff)
    b = brute_force_pairs(box.wrap(pos), box, cutoff)
    sa = {(min(i, j), max(i, j)) for i, j in zip(a.i, a.j)}
    sb = {(min(i, j), max(i, j)) for i, j in zip(b.i, b.j)}
    assert sa == sb


@given(side=st.floats(12.0, 40.0), pos=positions_strategy(4, 30))
@settings(max_examples=30, deadline=None)
def test_pair_distances_below_cutoff(side, pos):
    box = Box.cubic(side)
    cutoff = side / 4.0
    p = neighbor_pairs(pos, box, cutoff)
    assert np.all(p.r2 < cutoff * cutoff)
    assert np.all(p.i != p.j)


def _within_reach_sorted(cand, wrapped, box, reach):
    """Candidates within ``reach``, in canonical ``(i, j)`` order."""
    ii, jj = cand
    d = box.minimum_image(wrapped[ii] - wrapped[jj])
    keep = np.sum(d * d, axis=1) < reach * reach
    ii, jj = ii[keep], jj[keep]
    order = np.argsort(ii * np.int64(len(wrapped)) + jj)
    return ii[order], jj[order]


@given(
    side=st.floats(14.0, 32.0),
    n=st.integers(40, 160),
    reach_frac=st.floats(0.15, 0.5),
    replicas=st.integers(1, 4),
    identical=st.booleans(),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=40, deadline=None)
def test_batched_cell_candidates_equal_offset_solo_searches(
    side, n, reach_frac, replicas, identical, seed
):
    """One R-replica cell search == R solo searches offset by ``r * n``.

    After the reach filter and canonical sort.  Identical replica
    coordinates (the usual ensemble start) must not pair twins across
    blocks; small boxes and small systems, where no binning is
    admissible, return ``None`` for the batch exactly when they do solo.
    """
    box = Box.cubic(side)
    reach = side * reach_frac
    rng = np.random.default_rng(seed)
    blocks = [box.wrap(rng.uniform(0, side, (n, 3)))]
    for _ in range(replicas - 1):
        blocks.append(blocks[0] if identical else box.wrap(rng.uniform(0, side, (n, 3))))
    stacked = np.concatenate(blocks)
    got = cell_candidate_pairs(stacked, box, reach, replicas=replicas)
    solo = [cell_candidate_pairs(b, box, reach) for b in blocks]
    if got is None:
        assert all(s is None for s in solo)
        return
    want = [_within_reach_sorted(s, b, box, reach) for s, b in zip(solo, blocks)]
    gi, gj = _within_reach_sorted(got, stacked, box, reach)
    np.testing.assert_array_equal(gi, np.concatenate([w[0] + r * n for r, w in enumerate(want)]))
    np.testing.assert_array_equal(gj, np.concatenate([w[1] + r * n for r, w in enumerate(want)]))
