import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import embstab
from embstab import SimConfig, gen_ground_truth, gen_retrained_run

# The package's public surface. Adding, removing or renaming an export must
# edit this list on purpose.
PUBLIC_NAMES = [
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


def _readme_block(heading):
    """The first ```python block under README's `## <heading>`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_library_use_runs():
    # The block runs as written, its free names bound to a simulated run and
    # its retrain; its last line is the score check, and it holds.
    cfg = SimConfig(n_items=200, n_users=150, dim=8, noise_scale=0.05, seed=3)
    items0, users0 = gen_ground_truth(cfg)
    items1, users1 = gen_retrained_run(items0, users0, cfg)
    *body, last = ast.parse(_readme_block("Library use")).body
    assert isinstance(last, ast.Expr)
    names = {
        "item_vectors_run0": items0.vectors,
        "item_ids": items0.ids,
        "user_vectors_run0": users0.vectors,
        "user_ids": users0.ids,
        "items1": items1,
        "users1": users1,
    }
    exec(compile(ast.Module(body, type_ignores=[]), "README.md", "exec"), names)
    assert eval(compile(ast.Expression(last.value), "README.md", "eval"), names) is True
    assert names["run1"].reference_run_id == names["run0"].run_id
