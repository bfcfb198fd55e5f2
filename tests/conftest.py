import json
import os
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import embstab
import embstab.stabilizer
from embstab import (
    EmbeddingMatrix,
    RunRecord,
    apply_transform,
    init_reference,
    low_rank_svd_trans,
    ortho_procrustes,
    stabilize_run,
    write_embeddings,
    write_transform,
)
from embstab.errors import RankTruncationWarning


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# Ways to damage a run's JSON `meta` file, by name: text in, text out.
MALFORMED_META = {
    "truncated": lambda text: text[: len(text) // 2],
    "no_spectrum": lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "spectrum"}
    ),
    "unknown_key": lambda text: json.dumps({**json.loads(text), "bogus": 1}),
    "anchor_not_a_string": lambda text: json.dumps({**json.loads(text), "anchor": 5}),
    # Another run's anchor, reached from inside this run's directory.
    "anchor_outside_run": lambda text: json.dumps(
        {**json.loads(text), "anchor": "../run0/items.emb"}
    ),
    "listed_file_outside_run": lambda text: json.dumps(
        {
            **json.loads(text),
            "anchor": "../run0/items.emb",
            "files": {**json.loads(text)["files"], "../run0/items.emb": "00"},
        }
    ),
    "run_id_of_another_run": lambda text: json.dumps({**json.loads(text), "run_id": "run9"}),
    # The chain link, followed out of the store.
    "reference_outside_store": lambda text: json.dumps(
        {**json.loads(text), "reference_run_id": "../../etc"}
    ),
    "dim_not_an_int": lambda text: json.dumps({**json.loads(text), "dim": 8.5}),
    "rank_a_bool": lambda text: json.dumps({**json.loads(text), "effective_rank": True}),
    "spectrum_of_strings": lambda text: json.dumps({**json.loads(text), "spectrum": ["1.0"]}),
    # A record that disagrees with itself: each loaded over the run's maps.
    "rank_off_by_one": lambda text: json.dumps(
        {**json.loads(text), "effective_rank": json.loads(text)["effective_rank"] + 1}
    ),
    "spectrum_ascending": lambda text: json.dumps(
        {**json.loads(text), "spectrum": sorted(json.loads(text)["spectrum"])}
    ),
    "spectrum_nan": lambda text: json.dumps(
        {**json.loads(text), "spectrum": [float("nan"), *json.loads(text)["spectrum"][1:]]}
    ),
    "spectrum_negative": lambda text: json.dumps(
        {**json.loads(text), "spectrum": [*json.loads(text)["spectrum"][:-1], -1e-3]}
    ),
    "checksum_algorithm_md5": lambda text: json.dumps(
        {**json.loads(text), "checksum_algorithm": "md5"}
    ),
    "rank_policy_pad": lambda text: json.dumps({**json.loads(text), "rank_policy": "pad"}),
}


def _flip_byte(path, offset):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= 0xFF
    path.write_bytes(bytes(raw))


# Ways to damage a stored run file in place, by name. Only the last two
# change the trailing digest that the run's `meta` lists.
DAMAGED_FILE = {
    "bad_header": lambda path: _flip_byte(path, 0),
    "flipped_body_byte": lambda path: _flip_byte(path, 40),
    "truncated_trailer": lambda path: path.write_bytes(path.read_bytes()[:-5]),
    "missing": lambda path: path.unlink(),
}


def child_env(one_blas_thread=False):
    """Environment for a child `python -m embstab.cli`: this package first on
    PYTHONPATH and, when asked, one BLAS thread, since the BLAS thread count
    can change score and map bits by itself."""
    src = str(Path(embstab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    if one_blas_thread:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
    return env


def random_pair(n, m, dim, seed=0, dtype=np.float64):
    """Random full-rank embedding pair with unit expected row norm."""
    gen = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    items = EmbeddingMatrix.of_items((gen.standard_normal((n, dim)) * scale).astype(dtype))
    users = EmbeddingMatrix.of_users((gen.standard_normal((m, dim)) * scale).astype(dtype))
    return items, users


def rank_r_pair(n, m, dim, rank, seed=0, dtype=np.float64):
    """Embedding pair whose score matrix has exact rank `rank` below `dim`:
    the items span `rank` random directions, the users are full rank. Built
    in float64, then cast to dtype."""
    gen = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    items = gen.standard_normal((n, rank)) @ (gen.standard_normal((rank, dim)) * scale)
    users = gen.standard_normal((m, dim)) * scale
    return (
        EmbeddingMatrix.of_items(items.astype(dtype)),
        EmbeddingMatrix.of_users(users.astype(dtype)),
    )


def random_orthogonal(dim, seed=0):
    """Haar-distributed orthogonal matrix (QR with the sign correction)."""
    gen = np.random.default_rng(seed)
    q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def rel_fro(a, b):
    """Relative Frobenius distance ||a - b|| / ||b||."""
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def stabilized_pair(run):
    """A run's stabilized (items, users): its inputs through its maps."""
    return apply_transform(run.raw_items, run.item_map), apply_transform(run.raw_users, run.user_map)


def write_narrow_truncated_store(store, items, users):
    """A store as older releases wrote it after `init --rank-policy truncate`
    of a rank-deficient run: e x kept maps, a kept-wide anchor, meta.dim
    equal to kept and the policy in meta."""
    with pytest.warns(RankTruncationWarning):
        item_map, user_map, spectrum = low_rank_svd_trans(items, users)
    kept = spectrum.size
    item_map, user_map = item_map[:, :kept], user_map[:, :kept]
    run_dir = store / "runs" / "run0"
    run_dir.mkdir(parents=True)
    files = {
        "items.emb": write_embeddings(apply_transform(items, item_map), run_dir / "items.emb"),
        "users.emb": write_embeddings(apply_transform(users, user_map), run_dir / "users.emb"),
        "raw_items.emb": write_embeddings(items, run_dir / "raw_items.emb"),
        "raw_users.emb": write_embeddings(users, run_dir / "raw_users.emb"),
        "mT.olt": write_transform(item_map, run_dir / "mT.olt"),
        "mW.olt": write_transform(user_map, run_dir / "mW.olt"),
    }
    record = RunRecord(
        run_id="run0",
        reference_run_id="run0",
        created_at="2025-01-01T00:00:00+00:00",
        dim=kept,
        effective_rank=kept,
        spectrum=tuple(float(v) for v in spectrum),
        files=files,
    )
    meta = {**asdict(record), "rank_policy": "truncate"}
    (run_dir / "meta").write_text(json.dumps(meta, indent=2) + "\n")
    (store / "latest_ref").write_text("run0\n")
    return record


@contextmanager
def alignment_maps():
    """Every alignment map that stabilize_run makes inside the block, in
    order: a spy on the ortho_procrustes that embstab.stabilizer calls."""
    maps = []

    def spy(cross):
        maps.append(ortho_procrustes(cross))
        return maps[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(embstab.stabilizer, "ortho_procrustes", spy)
        yield maps


def chain_gaps(run0, run1, run2):
    """Stabilize the (items, users) pair run2 against run0's reference, once
    directly and once through run1's chained reference; returns the
    Frobenius gaps between the two outputs as (items, users)."""
    ref0 = init_reference(*run0, "chain-seed")
    direct = stabilize_run(*run2, ref0, "chain-direct")
    ref1 = stabilize_run(*run1, ref0, "chain-intermediate")
    chained = stabilize_run(*run2, ref1, "chain-chained")
    pairs = zip(stabilized_pair(direct), stabilized_pair(chained))
    return tuple(
        float(np.linalg.norm(a.vectors.astype(np.float64) - b.vectors)) for a, b in pairs
    )


@pytest.fixture(autouse=True)
def no_exit_in_process(monkeypatch):
    """Code a test calls in process returns: only cli.run(), in a child, may
    end the process, so os._exit raises here instead of ending pytest."""

    def refused(code):
        raise AssertionError(f"os._exit({code}) called in process")

    monkeypatch.setattr(os, "_exit", refused)
