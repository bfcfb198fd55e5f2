import embstab

# The package's public surface. Adding, removing or renaming an export must
# edit this list on purpose.
PUBLIC_NAMES = [
    "AlignmentMap",
    "ChainEquivalenceReport",
    "EmbeddingMatrix",
    "MetricsReport",
    "ReferenceSpace",
    "Role",
    "Rotation",
    "RunRecord",
    "RunStore",
    "SimConfig",
    "StabilizedRun",
    "SvdTransform",
    "apply_transform",
    "chain_equivalence_check",
    "compare_runs",
    "default_min_overlap",
    "errors",
    "gen_ground_truth",
    "gen_retrained_run",
    "haar_orthogonal",
    "init_reference",
    "load_sim_config",
    "low_rank_svd_trans",
    "mean_same_id_cosine",
    "ortho_procrustes",
    "rank_correlation_report",
    "rbo",
    "read_embeddings",
    "read_transform",
    "rowwise_matmul",
    "score_product_error",
    "stabilize_run",
    "write_embeddings",
    "write_report",
    "write_transform",
]


def test_all_is_pinned_and_resolves():
    assert sorted(embstab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(embstab, name), name
