"""Lossless stabilization of recommender embedding spaces across retrainings.

Retraining a factorization-style recommender produces user and item
embeddings in a fresh, incompatible coordinate system. This package maps
each run's embeddings into a fixed standard space via an inverse-free
low-rank SVD of the score space followed by an orthogonal Procrustes
alignment, composed into one small matrix per side. Every user-item dot
product is preserved exactly, so inference is unchanged while downstream
consumers see stable coordinates.
"""

from . import errors
from .lowrank import (
    EmbeddingMatrix,
    Role,
    apply_transform,
    low_rank_svd_trans,
)
from .metrics import (
    MetricsReport,
    compare_runs,
    mean_same_id_cosine,
    rank_correlation_report,
    write_report,
)
from .procrustes import ortho_procrustes
from .simulator import (
    Rotation,
    SimConfig,
    gen_ground_truth,
    gen_retrained_run,
    load_sim_config,
)
from .stabilizer import (
    StabilizedRun,
    init_reference,
    stabilize_run,
)
from .store import (
    RunRecord,
    RunStore,
    read_embeddings,
    read_transform,
    write_embeddings,
    write_transform,
)

__version__ = "0.1.0"

__all__ = [
    "EmbeddingMatrix",
    "MetricsReport",
    "Role",
    "Rotation",
    "RunRecord",
    "RunStore",
    "SimConfig",
    "StabilizedRun",
    "apply_transform",
    "compare_runs",
    "errors",
    "gen_ground_truth",
    "gen_retrained_run",
    "init_reference",
    "load_sim_config",
    "low_rank_svd_trans",
    "mean_same_id_cosine",
    "ortho_procrustes",
    "rank_correlation_report",
    "read_embeddings",
    "read_transform",
    "stabilize_run",
    "write_embeddings",
    "write_report",
    "write_transform",
]
