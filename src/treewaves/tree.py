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


@dataclass(frozen=True)
class VertexId:
    """Address of a tree vertex: child indices along the path from the root."""

    d: int
    address: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        TreeParams(self.d)
        object.__setattr__(self, "d", int(self.d))
        addr = tuple(int(i) for i in self.address)
        object.__setattr__(self, "address", addr)
        for pos, step in enumerate(addr):
            fan = self.d if pos == 0 else self.d - 1
            if step < 0 or step >= fan:
                raise ValidationError(
                    f"address step {step} at position {pos} out of range for d={self.d}"
                )

    @property
    def depth(self) -> int:
        return len(self.address)

    def parent(self) -> "VertexId":
        if not self.address:
            raise ValidationError("the root has no parent")
        return VertexId(self.d, self.address[:-1])

    def child(self, i: int) -> "VertexId":
        return VertexId(self.d, self.address + (int(i),))

    def to_string(self) -> str:
        return "/".join(str(i) for i in self.address)

    @staticmethod
    def from_string(d: int, text: str) -> "VertexId":
        if text == "":
            return VertexId(d, ())
        try:
            parts = tuple(int(tok) for tok in text.split("/"))
        except ValueError as exc:
            raise ValidationError(f"malformed vertex address {text!r}") from exc
        return VertexId(d, parts)


def distance(u: VertexId, v: VertexId) -> int:
    """Graph distance between two vertices: depths minus twice the shared prefix."""
    if u.d != v.d:
        raise ValidationError(f"vertices from different trees: d={u.d} vs d={v.d}")
    k = 0
    for a, b in zip(u.address, v.address):
        if a != b:
            break
        k += 1
    return u.depth + v.depth - 2 * k


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

    @property
    def vertices(self) -> tuple[VertexId, ...]:
        """VertexId of every vertex in BFS order, built on each access."""
        return tuple(VertexId.from_string(self.d, a) for a in self.addresses())


def enumerate_ball(d: int, r: int, max_vertices: int = DEFAULT_VERTEX_BUDGET) -> Ball:
    """Materialize the radius-r ball in BFS order.

    Rejects requests whose vertex count exceeds `max_vertices`; the count grows
    like (d-1)^r, so runaway radii fail fast instead of exhausting memory.
    """
    count = ball_vertex_count(d, r)
    if count > max_vertices:
        raise ValidationError(
            f"ball of radius {r} at d={d} holds {count} vertices, "
            f"over the budget of {max_vertices}"
        )
    sizes = [sphere_size(d, k) for k in range(r + 1)]
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


def canonical_path(d: int, n: int) -> list[VertexId]:
    """A fixed geodesic of n vertices starting at the root (child 0 repeatedly)."""
    TreeParams(d)
    if n < 1:
        raise ValidationError(f"path length must be >= 1, got {n}")
    if n > DEFAULT_VERTEX_BUDGET:
        raise ValidationError(f"path length {n} over the budget of {DEFAULT_VERTEX_BUDGET}")
    return [VertexId(d, (0,) * k) for k in range(n)]


def pairwise_distances(vertices: list[VertexId] | tuple[VertexId, ...]) -> np.ndarray:
    """Symmetric integer matrix of pairwise graph distances.

    Depths minus twice the shared address prefix, found by comparing one
    address position at a time across all pairs.
    """
    m = len(vertices)
    if len({v.d for v in vertices}) > 1:
        raise ValidationError("vertices from different trees")
    depth = np.array([v.depth for v in vertices], dtype=np.int64)
    width = int(depth.max(initial=0))
    # Addresses padded with -1; a padded position is never a shared step.
    addr = np.array(
        [v.address + (-1,) * (width - v.depth) for v in vertices], dtype=np.int64
    ).reshape(m, width)
    shared = np.zeros((m, m), dtype=np.int64)
    same = np.ones((m, m), dtype=bool)
    for k in range(width):
        col = addr[:, k]
        same &= col[:, None] == col[None, :]
        same &= (col >= 0)[:, None]
        shared += same
    return depth[:, None] + depth[None, :] - 2 * shared
