"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Tolerances are pinned here and nowhere else."""

import os
import time

import numpy as np
import pytest
import scipy.linalg

from embstab import (
    EmbeddingMatrix,
    Role,
    RunStore,
    Rotation,
    SimConfig,
    compare_runs,
    gen_ground_truth,
    gen_retrained_run,
    init_reference,
    low_rank_svd_trans,
    ortho_procrustes,
    read_embeddings,
    read_transform,
    stabilize_run,
    write_embeddings,
    write_transform,
)
from embstab.metrics import rbo
from conftest import (
    alignment_maps,
    chain_gaps,
    random_orthogonal,
    random_pair,
    stabilized_pair,
)
from test_metrics import rbo_bruteforce


def announce(number, name, passed=True):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}")


def test_c1_losslessness_of_stabilized_score_product():
    # 100 random instances, n, m <= 500, e in {2, 8, 32, 64}: stabilized
    # products must match the raw products to 1e-10 relative Frobenius,
    # both for the seeding run and for a stabilized retrained run.
    start = time.perf_counter()
    gen = np.random.default_rng(1001)
    count = 0
    for dim in (2, 8, 32, 64):
        for _ in range(25):
            lo = max(dim, 16)
            n = int(gen.integers(lo, 501))
            m = int(gen.integers(lo, 501))
            seed = int(gen.integers(0, 2**31))
            items, users = random_pair(n, m, dim, seed=seed)
            run0 = init_reference(items, users, "r0")
            raw0 = items.vectors @ users.vectors.T
            stab0 = stabilized_pair(run0)[0].vectors @ stabilized_pair(run0)[1].vectors.T
            assert np.linalg.norm(stab0 - raw0) <= 1e-10 * np.linalg.norm(raw0)

            g = random_orthogonal(dim, seed=seed + 1)
            noise = np.random.default_rng(seed + 2).standard_normal(items.vectors.shape)
            noise *= 0.01 * np.linalg.norm(items.vectors) / np.linalg.norm(noise)
            items1 = EmbeddingMatrix.of_items(items.vectors @ g + noise, ids=items.ids)
            users1 = EmbeddingMatrix.of_users(users.vectors @ g, ids=users.ids)
            run1 = stabilize_run(items1, users1, run0, "r1")
            raw1 = items1.vectors @ users1.vectors.T
            stab1 = stabilized_pair(run1)[0].vectors @ stabilized_pair(run1)[1].vectors.T
            assert np.linalg.norm(stab1 - raw1) <= 1e-10 * np.linalg.norm(raw1)
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 100
    assert elapsed < 30.0
    announce(1, f"losslessness, 100 instances in {elapsed:.1f}s")


def test_c2_spectrum_matches_dense_svd_oracle():
    # 50 instances with n, m <= 200: the spectrum computed from the R
    # factors alone must match dense singular values of the materialized
    # product to 1e-8 relative.
    start = time.perf_counter()
    gen = np.random.default_rng(2002)
    dims = [2, 8, 32, 64]
    for k in range(50):
        dim = dims[k % 4]
        n = int(gen.integers(dim, 201))
        m = int(gen.integers(dim, 201))
        items, users = random_pair(n, m, dim, seed=3000 + k)
        tr = low_rank_svd_trans(items, users)
        dense = np.linalg.svd(items.vectors @ users.vectors.T, compute_uv=False)[:dim]
        np.testing.assert_allclose(
            tr.spectrum, dense, rtol=1e-8, atol=1e-12 * dense[0]
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(2, f"spectrum oracle equivalence, 50 instances in {elapsed:.1f}s")


def test_c3_procrustes_recovery_and_stationarity():
    # Planted orthogonal maps recovered to 1e-10 over 100 trials.
    for trial in range(100):
        gen = np.random.default_rng(4000 + trial)
        dim = int(gen.integers(2, 17))
        a = gen.standard_normal((int(gen.integers(dim + 5, 60)), dim))
        g = random_orthogonal(dim, seed=5000 + trial)
        r = ortho_procrustes(a, a @ g)
        assert np.linalg.norm(r - g) < 1e-10

    # First-order stationarity at e <= 4: no orthogonal competitor beats the
    # solution, neither globally random nor local moves r expm(eps K).
    for dim in (2, 3, 4):
        gen = np.random.default_rng(600 + dim)
        a = gen.standard_normal((25, dim))
        b = a @ random_orthogonal(dim, seed=dim) + 0.1 * gen.standard_normal((25, dim))
        r = ortho_procrustes(a, b)
        best = np.linalg.norm(a @ r - b)
        for k in range(1000):
            omega = random_orthogonal(dim, seed=7000 * dim + k)
            assert best <= np.linalg.norm(a @ omega - b) + 1e-9
        for k in range(200):
            skew = gen.standard_normal((dim, dim))
            skew = skew - skew.T
            omega = r @ scipy.linalg.expm(1e-3 * skew)
            assert best <= np.linalg.norm(a @ omega - b) + 1e-9
    announce(3, "procrustes recovery and stationarity")


def test_c4_alignment_orthogonality_everywhere():
    # Every alignment produced by any pipeline satisfies
    # ||r^T r - I||_F <= 1e-12 e.
    maps = []
    for trial in range(30):
        gen = np.random.default_rng(8000 + trial)
        dim = int(gen.integers(2, 33))
        a = gen.standard_normal((60, dim))
        b = gen.standard_normal((60, dim))
        maps.append((dim, ortho_procrustes(a, b)))
    for seed in range(10):
        dim = 8
        items, users = random_pair(80, 60, dim, seed=seed)
        ref = init_reference(items, users, "r0")
        items2, users2 = random_pair(80, 60, dim, seed=seed + 50)
        with alignment_maps() as made:
            stabilize_run(items2, users2, ref, "r1")
        maps.append((dim, made[0]))
    for dim, r in maps:
        gap = np.linalg.norm(r.T @ r - np.eye(dim))
        assert gap <= 1e-12 * dim
    announce(4, f"orthogonality of {len(maps)} alignment maps")


def test_c5_table_pattern_on_synthetic_runs():
    # Synthetic reproduction of the published qualitative pattern: raw
    # cross-run similarities collapse toward zero while stabilized ones
    # stay high, averaged over 5 seeds at n = m = 2000, e = 32,
    # orthogonal retraining with 5 percent noise.
    start = time.perf_counter()
    raw_reports = []
    stab_reports = []
    for seed in (1, 2, 3, 4, 5):
        cfg = SimConfig(
            n_items=2000,
            n_users=2000,
            dim=32,
            noise_scale=0.05,
            rotation=Rotation.ORTHOGONAL,
            seed=seed,
        )
        items, users = gen_ground_truth(cfg)
        items2, users2 = gen_retrained_run(items, users, cfg)
        run0 = init_reference(items, users, "r0")
        run1 = stabilize_run(items2, users2, run0, "r1")
        raw_reports.append(compare_runs(items, users, items2, users2, top_k=100, p=0.9))
        stab_reports.append(
            compare_runs(
                *stabilized_pair(run0),
                *stabilized_pair(run1),
                top_k=100,
                p=0.9,
            )
        )

    def avg(reports, field):
        return float(np.mean([getattr(r, field) for r in reports]))

    raw_user = avg(raw_reports, "mean_user_cosine")
    raw_item = avg(raw_reports, "mean_item_cosine")
    raw_rbo = avg(raw_reports, "mean_rbo")
    stab_user = avg(stab_reports, "mean_user_cosine")
    stab_item = avg(stab_reports, "mean_item_cosine")
    stab_rbo = avg(stab_reports, "mean_rbo")
    elapsed = time.perf_counter() - start

    assert -0.1 <= raw_user <= 0.1
    assert -0.1 <= raw_item <= 0.1
    assert stab_user > 0.9
    assert stab_item > 0.9
    assert raw_rbo < 0.2
    assert stab_rbo > 0.8
    assert elapsed < 120.0
    announce(
        5,
        "table pattern: "
        f"user {raw_user:.3f}->{stab_user:.3f}, item {raw_item:.3f}->{stab_item:.3f}, "
        f"rbo {raw_rbo:.3f}->{stab_rbo:.3f} in {elapsed:.0f}s",
    )


def test_c6_reference_chaining_equivalence():
    # With a fixed vocabulary and exact orthogonal retrainings, stabilizing
    # run 2 through the chained reference matches stabilizing it against
    # run 0 directly.
    cfg = SimConfig(
        n_items=400, n_users=300, dim=16, noise_scale=0.0,
        rotation=Rotation.ORTHOGONAL, seed=66,
    )
    base = gen_ground_truth(cfg)
    run1 = gen_retrained_run(*base, cfg, run_index=1)
    run2 = gen_retrained_run(*base, cfg, run_index=2)
    item_gap, user_gap = chain_gaps(base, run1, run2)
    assert item_gap < 1e-8
    assert user_gap < 1e-8
    announce(6, f"chaining gap {item_gap:.2e}")


def test_c7_linear_scaling_in_item_count():
    # Doubling n at fixed m and e changes the fit time by roughly the
    # linear-cost prediction; absolute time stays far under the budget.
    # With m a tenth of the small n, that prediction is (2 + 0.1)/(1 + 0.1),
    # about 1.91, in the middle of the band; at m = n it would be 1.5,
    # inside the timing noise above the band's floor.
    dim = 128
    m = 10_000
    users = EmbeddingMatrix.of_users(
        np.random.default_rng(1).standard_normal((m, dim)) / np.sqrt(dim)
    )
    items_small = EmbeddingMatrix.of_items(
        np.random.default_rng(2).standard_normal((100_000, dim)) / np.sqrt(dim)
    )
    items_large = EmbeddingMatrix.of_items(
        np.random.default_rng(3).standard_normal((200_000, dim)) / np.sqrt(dim)
    )
    # Warm up LAPACK and the allocator before timing.
    low_rank_svd_trans(
        EmbeddingMatrix.of_items(items_small.vectors[:5000]),
        EmbeddingMatrix.of_users(users.vectors[:5000]),
    )

    # Small and large take turns, so a slow spell on a shared machine
    # lands on both sizes rather than on one; the best of five of each is
    # kept (of three, one slow spell per size could still fail the band).
    best = {"small": float("inf"), "large": float("inf")}
    for _ in range(5):
        for size, items in (("small", items_small), ("large", items_large)):
            t0 = time.perf_counter()
            low_rank_svd_trans(items, users)
            best[size] = min(best[size], time.perf_counter() - t0)
    t_small, t_large = best["small"], best["large"]
    ratio = t_large / t_small
    assert 1.4 <= ratio <= 2.6

    users_large = EmbeddingMatrix.of_users(
        np.random.default_rng(4).standard_normal((200_000, dim)) / np.sqrt(dim)
    )
    t0 = time.perf_counter()
    low_rank_svd_trans(items_large, users_large)
    t_square = time.perf_counter() - t0
    assert t_square < 60.0
    announce(
        7,
        f"scaling ratio {ratio:.2f} ({t_small:.2f}s -> {t_large:.2f}s), "
        f"200k x 200k fit {t_square:.2f}s",
    )


def test_c8_persistence_round_trips_and_crash_safety(tmp_path):
    # 200 random artifacts round-trip bit-exactly.
    gen = np.random.default_rng(8008)
    for k in range(200):
        if k % 2 == 0:
            n = int(gen.integers(0, 60))
            dim = int(gen.integers(1, 20))
            dtype = np.float32 if gen.integers(2) else np.float64
            emb = EmbeddingMatrix(
                Role.ITEM if gen.integers(2) else Role.USER,
                gen.choice(2**48, size=n, replace=False).astype(np.uint64),
                gen.standard_normal((n, dim)).astype(dtype),
            )
            path = tmp_path / f"a{k}.emb"
            write_embeddings(emb, path)
            back = read_embeddings(path)
            assert back.role is emb.role
            assert np.array_equal(back.ids, emb.ids)
            assert np.array_equal(back.vectors, emb.vectors)
            assert back.vectors.dtype == emb.vectors.dtype
        else:
            rows = int(gen.integers(1, 16))
            cols = int(gen.integers(1, 16))
            m = gen.standard_normal((rows, cols))
            path = tmp_path / f"a{k}.olt"
            write_transform(m, path)
            assert np.array_equal(read_transform(path), m)

    # Crash simulation: a failure between pointer write and rename leaves
    # the previous reference in place, and no committed run behind.
    store = RunStore(tmp_path / "store")
    items, users = random_pair(40, 30, 4, seed=0)
    run0 = init_reference(items, users, "run0")
    store.save_run(run0, advance=True)
    items1, users1 = random_pair(40, 30, 4, seed=1)
    run1 = stabilize_run(items1, users1, run0, "run1")

    with pytest.MonkeyPatch.context() as mp:
        replace = os.replace

        def explode(src, dst):
            if dst == store.latest_ref_path:
                raise RuntimeError("simulated crash")
            return replace(src, dst)

        mp.setattr(os, "replace", explode)
        with pytest.raises(RuntimeError):
            store.save_run(run1, advance=True)
    assert store.latest_reference_id() == "run0"
    assert store.list_runs() == ["run0"]
    store.save_run(run1, advance=True)
    assert store.latest_reference_id() == "run1"
    announce(8, "persistence round trips and crash safety")


def test_c9_rbo_matches_brute_force():
    # 1000 random list pairs with lengths <= 50: the incremental evaluation
    # agrees with the from-scratch sum to 1e-12.
    gen = np.random.default_rng(9009)
    universe = np.arange(200)
    for _ in range(1000):
        la = gen.permutation(universe)[: gen.integers(1, 51)]
        lb = gen.permutation(universe)[: gen.integers(1, 51)]
        p = float(gen.uniform(0.05, 0.99))
        depth = int(gen.integers(1, 61))
        fast = rbo(la, lb, p=p, depth=depth)
        slow = rbo_bruteforce(la, lb, p, depth)
        assert abs(fast - slow) <= 1e-12
    announce(9, "rbo brute-force agreement, 1000 pairs")
