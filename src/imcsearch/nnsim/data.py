"""Seeded synthetic fixture datasets for desk-scale experiments.

Two generators: separable Gaussian blobs (flat features, for dense nets)
and oriented grating patterns (image-shaped, for conv nets).  Both emit
non-negative data so the first layer can bit-serialize directly.
"""

from __future__ import annotations

import numpy as np

from .network import TensorBatch


def make_blobs(n_samples: int, n_classes: int = 2, n_features: int = 2,
               spread: float = 0.35, seed: int = 0) -> TensorBatch:
    """Linearly separable Gaussian blobs in the positive orthant."""
    rng = np.random.default_rng(seed)
    angles = np.linspace(0.0, np.pi / 2, n_classes)
    centers = 1.0 + 2.0 * np.stack(  # well separated, positive
        [np.cos(angles), np.sin(angles)], axis=1)[:, :n_features]
    if n_features > 2:
        extra = rng.uniform(0.5, 2.5, size=(n_classes, n_features - 2))
        centers = np.concatenate([centers, extra], axis=1)
    labels = rng.integers(0, n_classes, size=n_samples)
    data = centers[labels] + spread * rng.standard_normal((n_samples, n_features))
    return TensorBatch(data=np.maximum(data, 0.0), labels=labels)


def make_patterns(n_samples: int, channels: int = 1, height: int = 8,
                  width: int = 8, n_classes: int = 2, noise: float = 0.15,
                  seed: int = 0) -> TensorBatch:
    """Class-specific oriented gratings with additive noise, in [0, 1]."""
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    bases = []
    for c in range(n_classes):
        angle = np.pi * c / n_classes
        freq = 2.0 * np.pi * (1.0 + c % 3) / max(height, width)
        wave = np.sin(freq * (np.cos(angle) * xx + np.sin(angle) * yy))
        bases.append(0.5 + 0.5 * wave)
    labels = rng.integers(0, n_classes, size=n_samples)
    images = noise * rng.standard_normal((n_samples, height, width))
    images += np.stack(bases)[labels]
    data = np.empty((n_samples, channels, height, width))
    data[:] = np.clip(images, 0.0, 1.0, out=images)[:, None]
    return TensorBatch(data=data, labels=labels)


def split_batches(batch: TensorBatch, batch_size: int) -> list[TensorBatch]:
    out = []
    for start in range(0, len(batch), batch_size):
        sl = slice(start, start + batch_size)
        labels = None if batch.labels is None else batch.labels[sl]
        out.append(TensorBatch(data=batch.data[sl], labels=labels))
    return out
