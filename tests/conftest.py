"""Shared geometry helpers and fixtures for the test suite."""

import numpy as np
import pytest
from hypothesis import settings

# Reproducible property tests: --hypothesis-profile=ci draws the same
# examples on every run and drops the per-example deadline.
settings.register_profile("ci", derandomize=True, deadline=None)

# The worked parallelogram used throughout: (0,0), (1,0), (1.5,1), (0.5,1).
PARALLELOGRAM = np.array([[0.0, 0.0], [1.0, 0.0], [1.5, 1.0], [0.5, 1.0]])
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
POINT_Q = np.array([0.25, 0.5])  # midpoint of side 4-1 of the parallelogram


def cross2(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def edge_crosses(quad):
    """Cross products of consecutive edge vectors (positive = convex turn)."""
    e = np.roll(quad, -1, axis=0) - quad
    return cross2(e, np.roll(e, -1, axis=0))


def random_convex_quad(rng, min_cross=0.05):
    """CCW strictly convex quad with side-turn margin, by rejection."""
    while True:
        q = rng.random((4, 2)) * 2.0
        c = q.mean(axis=0)
        ang = np.arctan2(q[:, 1] - c[1], q[:, 0] - c[0])
        q = q[np.argsort(ang)]
        if np.all(edge_crosses(q) > min_cross):
            return q


def random_rectangle(rng):
    """Axis-aligned CCW rectangle with random origin and sides."""
    x0, y0 = rng.uniform(-1.0, 1.0, 2)
    w, h = rng.uniform(0.3, 2.0, 2)
    return np.array([[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]])


def random_simple_quad(rng):
    """Star-shaped (hence simple) CCW quad, sometimes concave.

    The angular gaps are bounded away from 0 and pi so the origin stays
    strictly inside and the vertex order is genuinely counter-clockwise.
    """
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, 4))
        gaps = np.diff(ang, append=ang[0] + 2 * np.pi)
        if gaps.min() < 0.3 or gaps.max() > 2.8:
            continue
        r = rng.uniform(0.4, 1.3, 4)
        return np.column_stack([r * np.cos(ang), r * np.sin(ang)])


def interior_points(quad, rng, n):
    """Uniform sample strictly inside a simple CCW quad via its interior
    diagonal's triangle fan."""
    for a, b, c, d in ((0, 1, 2, 3), (1, 2, 3, 0)):
        t1 = np.array([quad[a], quad[b], quad[c]])
        t2 = np.array([quad[a], quad[c], quad[d]])
        a1 = 0.5 * cross2(t1[1] - t1[0], t1[2] - t1[0])
        a2 = 0.5 * cross2(t2[1] - t2[0], t2[2] - t2[0])
        if a1 > 0 and a2 > 0:
            break
    else:
        raise ValueError("quad is not simple")
    pick = rng.random(n) * (a1 + a2) < a1
    st = rng.random((n, 2))
    fold = st.sum(axis=1) > 1.0
    st[fold] = 1.0 - st[fold]
    out = np.empty((n, 2))
    for tri, mask in ((t1, pick), (t2, ~pick)):
        out[mask] = (
            tri[0]
            + st[mask, :1] * (tri[1] - tri[0])
            + st[mask, 1:] * (tri[2] - tri[0])
        )
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
