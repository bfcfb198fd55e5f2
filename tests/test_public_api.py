import importlib
import importlib.util
from pathlib import Path

import pytest

import embstab

# The package's public surface. Adding, removing or renaming an export must
# edit this list on purpose.
PUBLIC_NAMES = [
    "AlignmentMap",
    "EmbeddingMatrix",
    "MetricsReport",
    "ReferenceSpace",
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


def test_all_is_pinned_and_resolves():
    assert sorted(embstab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(embstab, name), name


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module", TRACER.MODULES)
def test_benchmark_tracer_module_imports(module):
    importlib.import_module(f"embstab.{module}")


@pytest.mark.parametrize("target", TRACER.TARGETS, ids=lambda t: t[0])
def test_benchmark_tracer_target_resolves(target):
    # Resolved as Tracer.install resolves it: a method through the class
    # __dict__, a function through the module.
    _, module, attr, _ = target
    owner = importlib.import_module(f"embstab.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[method])
    else:
        assert callable(getattr(owner, attr))
