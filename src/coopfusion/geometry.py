"""Shared 2D geometry helpers: angle wrapping and rotation matrices."""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi


def wrap_angle(angle):
    """Normalize an angle (scalar or array) to the interval (-pi, pi]."""
    return np.pi - (np.pi - angle) % TWO_PI


def rotation(angle: float) -> np.ndarray:
    """Counterclockwise rotation matrix for a 2D rigid transform."""
    c = np.cos(angle)
    s = np.sin(angle)
    return np.array([[c, -s], [s, c]])


def symmetrized(m: np.ndarray) -> np.ndarray:
    """Return 0.5 * (M + M^T), removing round-off asymmetry; M may be a stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


def min_eig_2x2(m: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric 2x2 matrix, in closed form."""
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = max(tr * tr - 4.0 * det, 0.0)
    return 0.5 * (tr - np.sqrt(disc))
