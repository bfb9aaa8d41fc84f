"""Axis-aligned boxes and their interaction measures, the readable reference
for the box losses: at margin 0, the elbe and box2el GCI0 positive loss of
``A [= B`` is ``containment_measure_mu(A, B)``, and the GCI1 positive loss of
``A n B [= E`` is ``containment_measure_mu(box_intersection(A, B), E)``.
``losses`` computes the same values over whole batches without this module;
the test suite checks that they agree.

Boxes are (center, offset) pairs where the offset holds per-axis half-widths.
``box_intersection`` may return negative offset coordinates; that is the
emptiness signal, kept signed so losses can consume near-empty intersections
smoothly.  Negative offsets are never written back into model parameters
(the trainer clamps concept offsets after every step).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AABox:
    center: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64)
        offset = np.asarray(self.offset, dtype=np.float64)
        if center.shape != offset.shape:
            raise ValueError(f"dimension mismatch: {center.shape} vs {offset.shape}")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "offset", offset)

    @property
    def lower(self) -> np.ndarray:
        return self.center - self.offset

    @property
    def upper(self) -> np.ndarray:
        return self.center + self.offset

    def is_empty(self) -> bool:
        return bool(np.any(self.offset < 0))


def _check_dims(a: AABox, b: AABox) -> None:
    if a.center.shape != b.center.shape:
        raise ValueError(f"dimension mismatch: {a.center.shape} vs {b.center.shape}")


def box_intersection(a: AABox, b: AABox) -> AABox:
    """Intersection box; a negative offset coordinate means it is empty."""
    _check_dims(a, b)
    lower = np.maximum(a.lower, b.lower)
    upper = np.minimum(a.upper, b.upper)
    return AABox((lower + upper) / 2.0, (upper - lower) / 2.0)


def box_distance(a: AABox, b: AABox) -> np.ndarray:
    """Per-axis gap |c_a - c_b| - (o_a + o_b); negative where the boxes overlap."""
    _check_dims(a, b)
    return np.abs(a.center - b.center) - (a.offset + b.offset)


def containment_measure_mu(inner: AABox, outer: AABox) -> float:
    """L2 norm of the per-axis containment violation max(0, |dc| + o_in - o_out).

    Zero exactly when ``inner`` lies inside ``outer`` on every axis.
    """
    _check_dims(inner, outer)
    violation = np.maximum(
        0.0, np.abs(inner.center - outer.center) + inner.offset - outer.offset
    )
    return float(np.linalg.norm(violation))
