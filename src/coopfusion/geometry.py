"""Shared 2D geometry helpers: angle wrapping, cosines and sines, symmetrizing."""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(angle):
    """Normalize an angle (scalar or array) to the interval (-pi, pi]."""
    return np.pi - (np.pi - angle) % TWO_PI


def cos_sin(angles: np.ndarray) -> np.ndarray:
    """(n, 2) cosines and sines of the angles, each taken once through
    ``math``: ``np.cos`` and ``np.sin`` need not give libm's bits, and the
    scalar paths that the array passes must match use ``math``."""
    angles = angles.tolist()
    out = np.empty((len(angles), 2))
    out[:, 0] = np.fromiter(map(math.cos, angles), float, len(angles))
    out[:, 1] = np.fromiter(map(math.sin, angles), float, len(angles))
    return out


def symmetrized(m: np.ndarray) -> np.ndarray:
    """Return 0.5 * (M + M^T), removing round-off asymmetry; M may be a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))

