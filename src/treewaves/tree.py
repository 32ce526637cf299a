"""Vertex addressing and combinatorics of finite balls in the d-regular tree.

Vertices are addressed by the child-index path from a fixed root: the root is
the empty address, its d subtrees are labelled 0..d-1, and every deeper vertex
appends a label in 0..d-2 (the remaining edge of a non-root vertex points back
toward the root).  Addresses are stable across radii, so balls of different
radii share coordinates, and serialize as slash-joined labels ("" for the
root, "0/1/0" for a depth-3 vertex).  `Ball.address_bytes` builds them as one
NUL-padded bytes array, a sphere at a time; `textio.csv_chunks` takes it as is.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, integer

# `shell_sizes` refuses balls beyond this many vertices unless its caller passes
# another budget; `enumerate_ball` builds within this one.
DEFAULT_VERTEX_BUDGET = 10**6


def sphere_size(d: int, k: int) -> int:
    """Number of vertices at distance exactly k from a vertex."""
    d, k = integer("degree d", d, 3), integer("sphere radius", k, 0)
    if k == 0:
        return 1
    return d * (d - 1) ** (k - 1)


def ball_vertex_count(d: int, r: int) -> int:
    """Number of vertices within distance r: 1 + d((d-1)^r - 1)/(d-2)."""
    d, r = integer("degree d", d, 3), integer("ball radius", r, 0)
    return 1 + d * ((d - 1) ** r - 1) // (d - 2)


@dataclass(frozen=True, eq=False)
class Ball:
    """Breadth-first enumeration of the radius-r ball around the root.

    Vertices are ordered by depth, lexicographically within each depth, so the
    sphere of radius k occupies one contiguous slice, and the d - 1 (d at the
    root) children of one vertex are consecutive.  The ball is stored as
    read-only integer arrays: per vertex in that order, `parent` (BFS index of
    the parent, -1 at the root) and `depth`; per sphere, `starts` (radius + 2
    entries, sphere k being starts[k]:starts[k + 1]).
    """

    d: int
    radius: int
    parent: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.parent.size

    def sphere_slice(self, k: int) -> slice:
        """Positions of the radius-k sphere within the BFS order."""
        if k < 0 or k > self.radius:
            raise ValidationError(f"sphere {k} outside ball of radius {self.radius}")
        k = integer("sphere", k, 0)
        return slice(int(self.starts[k]), int(self.starts[k + 1]))

    def interior_indices(self) -> range:
        """Indices of vertices whose whole neighborhood lies inside the ball."""
        return range(int(self.starts[self.radius]))

    def addresses(self) -> list[str]:
        """Slash-joined address of every vertex, in BFS order."""
        return [a.replace(b"\0", b"").decode() for a in self.address_bytes().tolist()]

    def address_bytes(self) -> np.ndarray:
        """`addresses()` as a NUL-padded bytes array, built a sphere at a time:
        each label has a slot as wide as str(d - 1), so at d >= 11 a one-digit
        label leaves a NUL inside its row; delete NULs to read the address."""
        w = len(str(self.d - 1))
        labels = np.array([str(i) for i in range(self.d)], f"S{w}").view(np.uint8).reshape(-1, w)
        rows = np.zeros((len(self), max(1, self.radius * (w + 1) - 1)), np.uint8)
        if self.radius > 0:
            rows[1 : self.d + 1, :w] = labels
        for k in range(2, self.radius + 1):
            # sphere k: sphere k - 1 repeated d - 1 times, then '/' and a child label
            a, b, c = self.starts[k - 1 : k + 2]
            lead, cur = (k - 1) * (w + 1) - 1, rows[b:c].reshape(b - a, self.d - 1, -1)
            cur[:, :, :lead] = rows[a:b, None, :lead]
            cur[:, :, lead] = ord("/")
            cur[:, :, lead + 1 : lead + 1 + w] = labels[:-1]
        return rows.view(f"S{rows.shape[1]}").ravel()


def shell_sizes(d: int, r: int, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> list[int]:
    """Sphere sizes 0..r of the radius-r ball.  A negative radius, or a ball
    of more than `max_vertices` vertices, is rejected after at most a few
    shells: the count grows like (d-1)^r, so runaway radii fail fast."""
    r = integer("ball radius", r, 0)
    sizes = [sphere_size(d, 0)]
    while len(sizes) <= r and sum(sizes) <= max_vertices:
        sizes.append(sphere_size(d, len(sizes)))
    if sum(sizes) > max_vertices:
        raise ValidationError(f"ball of radius {r} at d={d} is over the budget of {max_vertices}")
    return sizes


@functools.lru_cache(maxsize=1, typed=True)
def enumerate_ball(d: int, r: int) -> Ball:
    """Materialize the radius-r ball in BFS order, within `shell_sizes`' default
    budget.  The last ball built (16 bytes per vertex) is kept and returned while
    (d, r) repeats with the same types, so r = 2.0 misses the entry for r = 2 and
    meets the radius rule; a Ball is immutable, so both samplers share it."""
    sizes = shell_sizes(d, r)
    starts = np.cumsum([0] + sizes)
    # Every interior vertex is the parent of the next `fan` vertices: d at the
    # root, d - 1 below.
    fan = np.full(starts[r], d - 1)
    fan[:1] = d
    parent = np.r_[-1, np.repeat(np.arange(starts[r]), fan)]
    depth = np.repeat(np.arange(r + 1), sizes)
    for arr in (parent, depth, starts):
        arr.flags.writeable = False
    return Ball(d=d, radius=r, parent=parent, depth=depth, starts=starts)


def pairwise_distances(vertices: Ball) -> np.ndarray:
    """Symmetric integer matrix of graph distances between the vertices of a ball.

    Depths minus twice the length of the shared address prefix.  Going up one
    level at a time, `anc` holds the depth-k ancestor of every vertex at depth
    >= k (a contiguous BFS suffix); two vertices share a prefix of length at
    least k exactly when their depth-k ancestors are equal.
    """
    parent, depth = vertices.parent, vertices.depth
    anc = np.arange(len(vertices))
    dist = np.add.outer(depth, depth)
    for k in range(vertices.radius, 0, -1):
        sl = vertices.sphere_slice(k)
        anc[sl.stop :] = parent[anc[sl.stop :]]
        tail = anc[sl.start :]
        dist[sl.start :, sl.start :] -= 2 * (tail[:, None] == tail[None, :])
    return dist
