"""Synthetic score spaces and perturbed retraining runs.

Stands in for real model retrainings: a ground-truth embedding pair plus
derived runs that mix the embedding dimensions with a common random
right-factor, add noise, and churn part of the item vocabulary. All
randomness flows from the config seed; each derived run draws from an
independent substream keyed by (seed, run_index).
"""

from __future__ import annotations

import enum
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig
from .lowrank import EmbeddingMatrix

MAX_CONDITION_NUMBER = 100.0


class Rotation(enum.Enum):
    NONE = "none"
    ORTHOGONAL = "orthogonal"
    GENERAL_INVERTIBLE = "general-invertible"

    @classmethod
    def parse(cls, text: str) -> "Rotation":
        key = str(text).strip().lower().replace("_", "-")
        for member in cls:
            if member.value == key:
                return member
        raise InvalidConfig(f"unknown rotation {text!r}")


@dataclass(frozen=True)
class SimConfig:
    n_items: int
    n_users: int
    dim: int
    noise_scale: float = 0.0
    rotation: Rotation = Rotation.ORTHOGONAL
    vocab_drop_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_items < 1 or self.n_users < 1 or self.dim < 1:
            raise InvalidConfig("n_items, n_users, and dim must all be positive")
        if self.dim > min(self.n_items, self.n_users):
            raise InvalidConfig(
                f"dim {self.dim} exceeds min(n_items, n_users) = "
                f"{min(self.n_items, self.n_users)}"
            )
        if not 0 <= self.noise_scale < np.inf:
            raise InvalidConfig(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        if not 0.0 <= self.vocab_drop_fraction < 1.0:
            raise InvalidConfig(
                f"vocab_drop_fraction must lie in [0, 1), got {self.vocab_drop_fraction}"
            )


def load_sim_config(path) -> SimConfig:
    """Parse a flat `key = value` config file (# starts a comment) into a
    SimConfig, each value as its field's annotated type: int, float or Rotation."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise InvalidConfig(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = text.partition("=")
        values[key.strip()] = value.strip()
    types = typing.get_type_hints(SimConfig)
    if unknown := set(values) - set(types):
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict = {}
    for key, value in values.items():
        kind = types[key]
        try:
            kwargs[key] = Rotation.parse(value) if kind is Rotation else kind(value)
        except InvalidConfig:  # an unknown rotation, with its own message
            raise
        except ValueError as exc:
            raise InvalidConfig(f"{key}: expected {kind.__name__}, got {value!r}") from exc
    try:
        return SimConfig(**kwargs)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from exc


def _substream(seed: int, run_index: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, run_index])


def haar_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random orthogonal matrix.

    The sign correction by diag(R) is required: raw LAPACK QR of a Gaussian
    matrix is biased (its trace is systematically negative)."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _clipped_invertible(dim: int, rng: np.random.Generator) -> np.ndarray:
    # Condition number clipped so the downstream inverse square root of the
    # spectrum stays well behaved.
    m = rng.standard_normal((dim, dim))
    u, s, vt = np.linalg.svd(m)
    s = np.maximum(s, s[0] / MAX_CONDITION_NUMBER)
    return (u * s) @ vt


def gen_ground_truth(cfg: SimConfig) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """Ground-truth embedding pair: i.i.d. Gaussian entries scaled to unit
    expected row norm, deterministic in cfg.seed, full rank with probability 1."""
    rng = np.random.default_rng(cfg.seed & 0xFFFFFFFFFFFFFFFF)
    scale = 1.0 / np.sqrt(cfg.dim)
    items = rng.standard_normal((cfg.n_items, cfg.dim)) * scale
    users = rng.standard_normal((cfg.n_users, cfg.dim)) * scale
    return EmbeddingMatrix.of_items(items), EmbeddingMatrix.of_users(users)


def gen_retrained_run(
    base_items: EmbeddingMatrix,
    base_users: EmbeddingMatrix,
    cfg: SimConfig,
    run_index: int = 1,
) -> tuple[EmbeddingMatrix, EmbeddingMatrix]:
    """Derive a perturbed "retraining" of a base pair.

    Applies a common random right-factor per cfg.rotation to both sides,
    adds independent Gaussian noise with Frobenius norm equal to
    noise_scale times the base norm, then replaces a vocab_drop_fraction of
    item rows with fresh Gaussian rows under new ids. run_index >= 1 keys
    the random substream and keeps fresh ids distinct across runs.
    """
    if run_index < 1:
        raise InvalidConfig(f"run_index must be >= 1, got {run_index}")
    rng = _substream(cfg.seed, run_index)
    t = base_items.vectors.astype(np.float64)
    w = base_users.vectors.astype(np.float64)

    if cfg.rotation is not Rotation.NONE:
        draw = haar_orthogonal if cfg.rotation is Rotation.ORTHOGONAL else _clipped_invertible
        mix = draw(cfg.dim, rng)
        t, w = t @ mix, w @ mix

    def noisy(x: np.ndarray, base: np.ndarray) -> np.ndarray:
        noise = rng.standard_normal(x.shape)
        return x + noise * (cfg.noise_scale * np.linalg.norm(base) / np.linalg.norm(noise))

    if cfg.noise_scale > 0:  # items' noise drawn first
        t, w = noisy(t, base_items.vectors), noisy(w, base_users.vectors)

    item_ids = np.asarray(base_items.ids)
    n_drop = int(cfg.vocab_drop_fraction * base_items.n)
    if n_drop > 0:
        dropped = rng.choice(base_items.n, size=n_drop, replace=False)
        keep = np.setdiff1d(np.arange(base_items.n), dropped)
        fresh = rng.standard_normal((n_drop, cfg.dim)) / np.sqrt(cfg.dim)
        # Fresh ids are offset per run so two runs derived from the same base
        # never reuse an id for unrelated rows.
        start = int(item_ids.max()) + 1 + (run_index - 1) * n_drop
        fresh_ids = np.arange(start, start + n_drop, dtype=np.uint64)
        t = np.concatenate([t[keep], fresh])
        item_ids = np.concatenate([item_ids[keep], fresh_ids])

    return (
        EmbeddingMatrix(base_items.role, item_ids, t),
        EmbeddingMatrix(base_users.role, base_users.ids, w),
    )
