import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embstab.lowrank
import embstab.metrics

from embstab import (
    EmbeddingMatrix,
    compare_runs,
    init_reference,
    mean_same_id_cosine,
    rank_correlation_report,
    stabilize_run,
    write_report,
)
from embstab.errors import (
    DimensionMismatch,
    DuplicateId,
    InsufficientOverlap,
    InvalidConfig,
    RoleMismatch,
    ZeroNormRow,
)
from embstab.metrics import rbo
from conftest import random_orthogonal, random_pair, stabilized_pair


def rbo_bruteforce(list_a, list_b, p, depth):
    """Direct evaluation of the depth-truncated extrapolated sum; the oracle
    recomputes every prefix intersection from scratch."""
    la = [int(x) for x in list_a]
    lb = [int(x) for x in list_b]
    d_eff = min(depth, len(la), len(lb))
    if d_eff == 0:
        return 0.0
    total = 0.0
    for d in range(1, d_eff + 1):
        agreement = len(set(la[:d]) & set(lb[:d])) / d
        total += p ** (d - 1) * agreement
    final = len(set(la[:d_eff]) & set(lb[:d_eff])) / d_eff
    return (1 - p) * total + p**d_eff * final


def rbo_scalar_loop(list_a, list_b, p, depth):
    """The one-list-at-a-time RBO that the block function replaced: the
    overlap is updated per depth and the weighted agreement summed in
    ascending depth. Kept as the oracle for bit-identical results."""
    la = [int(x) for x in list_a]
    lb = [int(x) for x in list_b]
    d_eff = min(depth, len(la), len(lb))
    if d_eff == 0:
        return 0.0
    seen_a, seen_b = set(), set()
    overlap = 0
    acc = 0.0
    agreement = 0.0
    for d in range(1, d_eff + 1):
        x, y = la[d - 1], lb[d - 1]
        if x == y:
            overlap += 1
        else:
            overlap += (x in seen_b) + (y in seen_a)
            seen_a.add(x)
            seen_b.add(y)
        agreement = overlap / d
        acc += p ** (d - 1) * agreement
    return (1.0 - p) * acc + p**d_eff * agreement


def rank_correlation_full_sort(items_ref, users_a, users_b, top_k, p):
    """Mean RBO from the whole users x items score matrix, each row sorted
    in full by a stable descending argsort over ascending item ids."""
    shared = np.intersect1d(users_a.ids, users_b.ids)
    item_order = np.argsort(items_ref.ids, kind="stable")
    item_ids_sorted = items_ref.ids[item_order]
    item_vecs = items_ref.vectors.astype(np.float64)[item_order]
    ranked = [
        item_ids_sorted[np.argsort(-(u.vectors.astype(np.float64)[u.positions(shared)] @ item_vecs.T),
                                   axis=1, kind="stable")[:, :top_k]]
        for u in (users_a, users_b)
    ]
    values = [rbo_scalar_loop(ranked[0][i], ranked[1][i], p, top_k) for i in range(shared.size)]
    return math.fsum(values) / len(values), int(shared.size)


@st.composite
def tie_heavy_rankings(draw):
    """Items drawn from a small pool of vectors (so many are duplicates),
    with ids in random order; vectors on a coarse grid, so every score is
    exact under any summation order and ties cross the top-k boundary."""
    n_items = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 4))
    grid = st.integers(-2, 2)
    pool = draw(st.lists(st.lists(grid, min_size=dim, max_size=dim), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n_items, max_size=n_items))
    item_ids = draw(st.permutations(range(3 * n_items)))[:n_items]
    items = EmbeddingMatrix.of_items(0.5 * np.array([pool[i] for i in picks], float), ids=item_ids)
    n_shared = draw(st.integers(1, 30))
    ids_a = np.arange(n_shared + draw(st.integers(0, 3)))
    ids_b = np.concatenate([np.arange(n_shared), 1000 + np.arange(draw(st.integers(0, 3)))])
    users = [
        EmbeddingMatrix.of_users(
            np.array(draw(st.lists(st.lists(grid, min_size=dim, max_size=dim),
                                   min_size=ids.size, max_size=ids.size)), float).reshape(-1, dim),
            ids=draw(st.permutations(ids)),
        )
        for ids in (ids_a, ids_b)
    ]
    top_k = draw(st.integers(1, n_items + 3))
    p = draw(st.floats(0.01, 0.99))
    budget = draw(st.integers(1, 3 * n_items))  # 1 to 3 users per block
    return items, users[0], users[1], top_k, p, budget


class TestMeanSameIdCosine:
    def test_self_similarity_is_exactly_one(self):
        emb, _ = random_pair(20, 5, 4, seed=0)
        mean, n = mean_same_id_cosine(emb, emb)
        assert mean == 1.0
        assert n == 20

    def test_orthogonal_plus_identical_rows(self):
        a = EmbeddingMatrix.of_items([[1.0, 0.0], [1.0, 0.0]], ids=[1, 2])
        b = EmbeddingMatrix.of_items([[0.0, 1.0], [1.0, 0.0]], ids=[1, 2])
        mean, n = mean_same_id_cosine(a, b)
        assert mean == pytest.approx(0.5, abs=1e-15)
        assert n == 2

    def test_hand_computed_value(self):
        a = EmbeddingMatrix.of_items([[1.0, 0.0]])
        b = EmbeddingMatrix.of_items([[1.0, 1.0]])
        mean, _ = mean_same_id_cosine(a, b)
        assert mean == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)

    def test_intersection_only(self):
        a = EmbeddingMatrix.of_items([[1.0], [2.0]], ids=[1, 2])
        b = EmbeddingMatrix.of_items([[1.0], [-1.0]], ids=[2, 3])
        mean, n = mean_same_id_cosine(a, b)
        assert (mean, n) == (1.0, 1)

    def test_empty_intersection(self):
        a = EmbeddingMatrix.of_items([[1.0]], ids=[1])
        b = EmbeddingMatrix.of_items([[1.0]], ids=[2])
        with pytest.raises(InsufficientOverlap):
            mean_same_id_cosine(a, b)

    def test_role_mismatch(self):
        a = EmbeddingMatrix.of_items([[1.0]])
        b = EmbeddingMatrix.of_users([[1.0]])
        with pytest.raises(RoleMismatch):
            mean_same_id_cosine(a, b)

    def test_width_mismatch_names_both_widths(self):
        items, users = random_pair(6, 5, 4, seed=18)
        narrow_items, narrow_users = random_pair(6, 5, 3, seed=19)
        with pytest.raises(DimensionMismatch, match="4 and 3"):
            mean_same_id_cosine(items, narrow_items)
        with pytest.raises(DimensionMismatch, match="4 and 3"):
            compare_runs(items, users, narrow_items, narrow_users)

    def test_zero_norm_strict_names_offender(self):
        a = EmbeddingMatrix.of_items([[1.0, 0.0], [0.0, 0.0]], ids=[5, 9])
        b = EmbeddingMatrix.of_items([[1.0, 0.0], [1.0, 0.0]], ids=[5, 9])
        with pytest.raises(ZeroNormRow, match="9"):
            mean_same_id_cosine(a, b)

    def test_invariant_under_common_rotation_only(self):
        a, _ = random_pair(40, 5, 8, seed=1)
        b, _ = random_pair(40, 5, 8, seed=2)
        q = random_orthogonal(8, seed=3)
        base, _ = mean_same_id_cosine(a, b)
        both = mean_same_id_cosine(
            EmbeddingMatrix.of_items(a.vectors @ q, ids=a.ids),
            EmbeddingMatrix.of_items(b.vectors @ q, ids=b.ids),
        )[0]
        assert both == pytest.approx(base, abs=1e-12)
        # Rotating a single side is precisely what breaks comparability:
        # self-similarity collapses from exactly 1 to roughly 0.
        one_side = mean_same_id_cosine(
            EmbeddingMatrix.of_items(a.vectors @ q, ids=a.ids), a
        )[0]
        assert one_side < 0.5


class TestRbo:
    @pytest.mark.parametrize("p", [0.5, 0.9, 0.98])
    @pytest.mark.parametrize("depth", [1, 3, 10])
    def test_identical_lists(self, p, depth):
        lists = list(range(12))
        assert rbo(lists, lists, p=p, depth=depth) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_lists(self):
        assert rbo([1, 2, 3], [4, 5, 6], p=0.9, depth=3) == 0.0

    def test_worked_example(self):
        # A_1 = 0, A_2 = 1, A_3 = 1 so the sum is
        # 0.1 * (0 + 0.9 + 0.81) + 0.729 = 0.900.
        assert rbo([1, 2, 3], [2, 1, 3], p=0.9, depth=3) == pytest.approx(0.900, abs=1e-12)

    def test_matches_bruteforce_on_random_pairs(self, rng):
        universe = np.arange(80)
        for _ in range(200):
            la = rng.permutation(universe)[: rng.integers(1, 50)]
            lb = rng.permutation(universe)[: rng.integers(1, 50)]
            p = float(rng.uniform(0.05, 0.99))
            depth = int(rng.integers(1, 60))
            assert rbo(la, lb, p=p, depth=depth) == pytest.approx(
                rbo_bruteforce(la, lb, p, depth), abs=1e-12
            )

    def test_short_lists_truncate_and_extrapolate(self):
        # Depth exceeds both lengths: evaluation stops at the shorter list.
        assert rbo([1, 2], [1, 2], p=0.9, depth=100) == pytest.approx(1.0, abs=1e-12)
        assert rbo([1, 2, 3], [1, 2], p=0.9, depth=100) == pytest.approx(
            rbo_bruteforce([1, 2, 3], [1, 2], 0.9, 2), abs=1e-15
        )

    def test_empty_list_scores_zero(self):
        assert rbo([], [1, 2], p=0.9, depth=5) == 0.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            rbo([1, 1, 2], [1, 2, 3], p=0.9, depth=3)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
    def test_invalid_persistence(self, p):
        with pytest.raises(InvalidConfig):
            rbo([1], [1], p=p, depth=1)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            rbo([1], [1], p=0.9, depth=0)

    def test_monotone_under_agreement_truncation(self, rng):
        # Swapping a shared head element out for a foreign one never raises
        # the score.
        for trial in range(50):
            universe = list(range(200, 400))
            la = list(rng.permutation(30))
            lb = la.copy()
            rng.shuffle(lb)
            p = float(rng.uniform(0.1, 0.95))
            depth = int(rng.integers(1, 30))
            base = rbo(la, lb, p=p, depth=depth)
            swap_pos = int(rng.integers(0, len(la)))
            la_worse = la.copy()
            la_worse[swap_pos] = universe[trial]
            assert rbo(la_worse, lb, p=p, depth=depth) <= base + 1e-12

    @given(
        st.lists(st.integers(min_value=0, max_value=10_000), unique=True, max_size=40),
        st.lists(st.integers(min_value=0, max_value=10_000), unique=True, max_size=40),
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_property(self, la, lb, p, depth):
        value = rbo(la, lb, p=p, depth=depth)
        assert 0.0 <= value <= 1.0 + 1e-12
        assert value == pytest.approx(rbo_bruteforce(la, lb, p, depth), abs=1e-12)

    @given(
        st.lists(st.integers(min_value=0, max_value=60), unique=True, max_size=40),
        st.lists(st.integers(min_value=0, max_value=60), unique=True, max_size=40),
        st.floats(min_value=0.01, max_value=0.99),
        st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scalar_loop(self, la, lb, p, depth):
        assert rbo(la, lb, p=p, depth=depth) == rbo_scalar_loop(la, lb, p, depth)


class TestRankCorrelationReport:
    def test_identical_scorers(self):
        items, users = random_pair(50, 30, 8, seed=4)
        mean, n = rank_correlation_report(items, users, users, top_k=10, p=0.9)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert n == 30

    def test_tie_breaking_by_ascending_id(self):
        # Two items with identical vectors score identically for every user;
        # the smaller id must come first in both rankings.
        items = EmbeddingMatrix.of_items(
            [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], ids=[7, 3, 5]
        )
        users = EmbeddingMatrix.of_users([[2.0, 1.0]], ids=[1])
        mean, _ = rank_correlation_report(items, users, users, top_k=3, p=0.9)
        assert mean == pytest.approx(1.0, abs=1e-15)

    def test_rotated_users_rank_incoherently(self):
        # Mean RBO for rotated user vectors must sit inside the baseline
        # distribution obtained from entirely unrelated user sets.
        gen = np.random.default_rng(99)
        items = EmbeddingMatrix.of_items(gen.standard_normal((300, 8)) / np.sqrt(8))
        users = EmbeddingMatrix.of_users(gen.standard_normal((50, 8)) / np.sqrt(8))
        baseline = []
        for t in range(100):
            other = EmbeddingMatrix.of_users(
                np.random.default_rng(1000 + t).standard_normal((50, 8)) / np.sqrt(8)
            )
            baseline.append(rank_correlation_report(items, users, other, top_k=30, p=0.9)[0])
        baseline = np.asarray(baseline)

        rotated = []
        for t in range(20):
            q = random_orthogonal(8, seed=5000 + t)
            spun = EmbeddingMatrix.of_users(users.vectors @ q, ids=users.ids)
            rotated.append(rank_correlation_report(items, users, spun, top_k=30, p=0.9)[0])
        gap = abs(np.mean(rotated) - baseline.mean())
        assert gap < 3.0 * baseline.std()
        assert np.mean(rotated) < 0.5  # nowhere near coherent ranking

    def test_stabilized_retraining_restores_rankings(self):
        items, users = random_pair(300, 200, 8, seed=6)
        gen = np.random.default_rng(7)
        g = random_orthogonal(8, seed=8)
        noise = gen.standard_normal(users.vectors.shape)
        noise *= 1e-3 * np.linalg.norm(users.vectors) / np.linalg.norm(noise)
        items2 = EmbeddingMatrix.of_items(items.vectors @ g, ids=items.ids)
        users2 = EmbeddingMatrix.of_users(users.vectors @ g + noise, ids=users.ids)

        run0 = init_reference(items, users, "r0")
        run1 = stabilize_run(items2, users2, run0, "r1")
        stabilized, _ = rank_correlation_report(
            *stabilized_pair(run0), stabilized_pair(run1)[1]
        )
        raw, _ = rank_correlation_report(items, users, users2)
        assert stabilized > 0.9
        assert raw < 0.2

    def test_invariant_under_common_rotation_of_everything(self):
        items, users_a = random_pair(200, 40, 8, seed=9)
        users_b, _ = random_pair(40, 5, 8, seed=10)
        users_b = EmbeddingMatrix.of_users(users_b.vectors, ids=users_a.ids)
        q = random_orthogonal(8, seed=11)
        base, _ = rank_correlation_report(items, users_a, users_b, top_k=20)
        spun, _ = rank_correlation_report(
            EmbeddingMatrix.of_items(items.vectors @ q, ids=items.ids),
            EmbeddingMatrix.of_users(users_a.vectors @ q, ids=users_a.ids),
            EmbeddingMatrix.of_users(users_b.vectors @ q, ids=users_b.ids),
            top_k=20,
        )
        assert spun == base  # dot products are preserved, rankings identical

    @given(tie_heavy_rankings())
    @settings(max_examples=200, deadline=None)
    def test_blocks_bit_identical_to_full_sort(self, case):
        items, users_a, users_b, top_k, p, budget = case
        want = rank_correlation_full_sort(items, users_a, users_b, top_k, p)
        with mock.patch.object(embstab.metrics, "SCORE_BLOCK_ELEMENTS", budget):
            assert rank_correlation_report(items, users_a, users_b, top_k=top_k, p=p) == want

    @given(tie_heavy_rankings())
    @settings(max_examples=200, deadline=None)
    def test_same_result_on_one_and_two_lanes(self, case):
        items, users_a, users_b, top_k, p, budget = case
        results = []
        for lanes in (1, 2):
            with mock.patch.object(embstab.lowrank, "LANES", lanes), \
                    mock.patch.object(embstab.metrics, "SCORE_BLOCK_ELEMENTS", budget):
                results.append(rank_correlation_report(items, users_a, users_b, top_k=top_k, p=p))
        assert results[0] == results[1]

    def test_boundary_tie_keeps_smaller_ids(self):
        # Under A, five items tie below item 40; under B, six tie below
        # item 1. At k = 3 only two of them fit, and on every block they must
        # be the two smallest ids: A ranks 40, 2, 4 and B ranks 1, 2, 4.
        vectors = [[1.0, 0.0]] * 5 + [[2.0, 0.0], [0.0, 1.0]]
        items = EmbeddingMatrix.of_items(vectors, ids=[9, 2, 7, 4, 30, 40, 1])
        users_a = EmbeddingMatrix.of_users([[1.0, 0.0]] * 4, ids=[1, 2, 3, 4])
        users_b = EmbeddingMatrix.of_users([[0.0, 1.0]] * 4, ids=[1, 2, 3, 4])
        # Overlaps 0, 1, 2 at depths 1-3.
        want = (0.1 * (0.0 + 0.9 * 0.5 + 0.81 * (2 / 3)) + 0.729 * (2 / 3), 4)
        for budget in (1, 7, 15, 1 << 20):
            with mock.patch.object(embstab.metrics, "SCORE_BLOCK_ELEMENTS", budget):
                mean, n = rank_correlation_report(items, users_a, users_b, top_k=3, p=0.9)
            assert n == want[1]
            assert mean == pytest.approx(want[0], abs=1e-15)
            assert (mean, n) == rank_correlation_full_sort(items, users_a, users_b, 3, 0.9)

    def test_peak_memory_set_by_block_not_users_x_items(self, rng):
        items = EmbeddingMatrix.of_items(rng.standard_normal((20_000, 8)))
        vectors = rng.standard_normal((4000, 8))
        peaks = []
        for n_users in (2000, 4000):
            users_a = EmbeddingMatrix.of_users(vectors[:n_users])
            users_b = EmbeddingMatrix.of_users(vectors[:n_users] + 0.1, ids=users_a.ids)
            tracemalloc.start()
            try:
                rank_correlation_report(items, users_a, users_b)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        full_scores = 2000 * 20_000 * 8
        assert peaks[0] < full_scores / 8
        assert peaks[1] <= 1.10 * peaks[0]

    def test_two_lanes_hold_at_most_two_blocks(self, rng):
        # Each lane holds one block's scores at a time, whatever the user count.
        items = EmbeddingMatrix.of_items(rng.standard_normal((20_000, 8)))
        vectors = rng.standard_normal((4000, 8))
        peaks = {}
        for lanes in (1, 2):
            for n_users in (2000, 4000):
                users_a = EmbeddingMatrix.of_users(vectors[:n_users])
                users_b = EmbeddingMatrix.of_users(vectors[:n_users] + 0.1, ids=users_a.ids)
                tracemalloc.start()
                try:
                    with mock.patch.object(embstab.lowrank, "LANES", lanes):
                        rank_correlation_report(items, users_a, users_b)
                    peaks[lanes, n_users] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[2, 2000] <= 2.2 * peaks[1, 2000]
        assert peaks[2, 4000] <= 2.2 * peaks[1, 2000]

    def test_width_mismatch(self):
        items, users = random_pair(10, 5, 4, seed=12)
        wrong, _ = random_pair(5, 5, 3, seed=13)
        wrong = EmbeddingMatrix.of_users(wrong.vectors, ids=users.ids[:5])
        with pytest.raises(DimensionMismatch):
            rank_correlation_report(items, users, wrong)

    def test_no_shared_users(self):
        items, users = random_pair(10, 5, 4, seed=14)
        other = EmbeddingMatrix.of_users(
            users.vectors, ids=np.arange(100, 105, dtype=np.uint64)
        )
        with pytest.raises(InsufficientOverlap):
            rank_correlation_report(items, users, other)


class TestReports:
    def test_compare_runs_self_comparison(self):
        items, users = random_pair(60, 40, 8, seed=15)
        report = compare_runs(items, users, items, users, top_k=20, p=0.9)
        assert report.mean_user_cosine == 1.0
        assert report.mean_item_cosine == 1.0
        assert report.mean_rbo == pytest.approx(1.0, abs=1e-12)
        assert report.n_users_compared == 40
        assert report.n_items_compared == 60
        assert (report.rbo_persistence, report.rbo_depth) == (0.9, 20)

    def test_ranges(self):
        items_a, users_a = random_pair(60, 40, 8, seed=16)
        items_b, users_b = random_pair(60, 40, 8, seed=17)
        report = compare_runs(items_a, users_a, items_b, users_b, top_k=10)
        assert -1.0 <= report.mean_user_cosine <= 1.0
        assert -1.0 <= report.mean_item_cosine <= 1.0
        assert 0.0 <= report.mean_rbo <= 1.0

    def test_flat_text_round_trips(self):
        items, users = random_pair(30, 20, 4, seed=18)
        report = compare_runs(items, users, items, users, top_k=5)
        text = report.to_flat_text()
        parsed = {}
        for line in text.strip().splitlines():
            key, _, value = line.partition(" = ")
            parsed[key] = eval(value)  # values are repr() of float/int
        assert parsed == report.to_dict()

    def test_write_report_files(self, tmp_path):
        import json

        items, users = random_pair(30, 20, 4, seed=19)
        report = compare_runs(items, users, items, users, top_k=5)
        write_report(report, tmp_path / "report.txt", tmp_path / "report.json")
        assert (tmp_path / "report.txt").read_text() == report.to_flat_text()
        assert json.loads((tmp_path / "report.json").read_text()) == report.to_dict()
