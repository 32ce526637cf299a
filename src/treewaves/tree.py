"""Vertex addressing and combinatorics of finite balls in the d-regular tree.

Vertices are addressed by the child-index path from a fixed root: the root is
the empty address, its d subtrees are labelled 0..d-1, and every deeper vertex
appends a label in 0..d-2 (the remaining edge of a non-root vertex points back
toward the root).  Addresses are stable across radii, so balls of different
radii share coordinates, and serialize as slash-joined labels ("" for the
root, "0/1/0" for a depth-3 vertex).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .spectral import TreeParams

# Refuse to enumerate balls beyond this many vertices unless the caller raises
# the budget explicitly.
DEFAULT_VERTEX_BUDGET = 10**6


def sphere_size(d: int, k: int) -> int:
    """Number of vertices at distance exactly k from a vertex."""
    TreeParams(d)
    if k < 0:
        raise ValidationError(f"sphere radius must be >= 0, got {k}")
    if k == 0:
        return 1
    return d * (d - 1) ** (k - 1)


def ball_vertex_count(d: int, r: int) -> int:
    """Number of vertices within distance r: 1 + d((d-1)^r - 1)/(d-2)."""
    TreeParams(d)
    if r < 0:
        raise ValidationError(f"ball radius must be >= 0, got {r}")
    return 1 + d * ((d - 1) ** r - 1) // (d - 2)


@dataclass(frozen=True, eq=False)
class Ball:
    """Breadth-first enumeration of the radius-r ball around the root.

    Vertices are ordered by depth, lexicographically within each depth, so the
    sphere of radius k occupies one contiguous slice, and the d - 1 (d at the
    root) children of one vertex are consecutive.  The ball is stored as two
    read-only integer arrays over that order: `parent` (BFS index of each
    vertex's parent, -1 at the root) and `depth`.
    """

    d: int
    radius: int
    parent: np.ndarray = field(repr=False)
    depth: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.parent.size

    def sphere_slice(self, k: int) -> slice:
        """Positions of the radius-k sphere within the BFS order."""
        if k < 0 or k > self.radius:
            raise ValidationError(f"sphere {k} outside ball of radius {self.radius}")
        start = 0 if k == 0 else ball_vertex_count(self.d, k - 1)
        return slice(start, ball_vertex_count(self.d, k))

    def interior_indices(self) -> range:
        """Indices of vertices whose whole neighborhood lies inside the ball."""
        return range(self.sphere_slice(self.radius).start)

    def addresses(self) -> list[str]:
        """Slash-joined address of every vertex, in BFS order."""
        labels = [str(i) for i in range(self.d)]
        shell = labels if self.radius > 0 else []
        out = [""] + shell
        for _ in range(1, self.radius):
            shell = [f"{a}/{c}" for a in shell for c in labels[:-1]]
            out.extend(shell)
        return out


def enumerate_ball(d: int, r: int, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> Ball:
    """Materialize the radius-r ball in BFS order.

    Rejects requests whose vertex count exceeds `max_vertices`; the count grows
    like (d-1)^r, so runaway radii fail fast instead of exhausting memory.
    """
    if r < 0:
        raise ValidationError(f"ball radius must be >= 0, got {r}")
    sizes = [sphere_size(d, 0)]  # grown only while within budget: a huge r costs a few shells
    while len(sizes) <= r and sum(sizes) <= max_vertices:
        sizes.append(sphere_size(d, len(sizes)))
    if sum(sizes) > max_vertices:
        raise ValidationError(f"ball of radius {r} at d={d} is over the budget of {max_vertices}")
    starts = np.cumsum([0] + sizes)
    # Shell k repeats each shell-(k-1) index once per child.
    parent = np.concatenate(
        [np.array([-1])]
        + [
            np.repeat(np.arange(starts[k - 1], starts[k]), d if k == 1 else d - 1)
            for k in range(1, r + 1)
        ]
    )
    depth = np.repeat(np.arange(r + 1), sizes)
    parent.flags.writeable = False
    depth.flags.writeable = False
    return Ball(d=d, radius=r, parent=parent, depth=depth)




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
