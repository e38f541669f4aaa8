"""Shared 2D geometry helpers: angle wrapping and symmetrizing."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(angle):
    """Normalize an angle (scalar or array) to the interval (-pi, pi]."""
    return np.pi - (np.pi - angle) % TWO_PI


def symmetrized(m: np.ndarray) -> np.ndarray:
    """Return 0.5 * (M + M^T), removing round-off asymmetry; M may be a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))

