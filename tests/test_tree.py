import numpy as np
import pytest

import treewaves as tw
from treewaves.errors import ValidationError


def test_vertex_id_validation():
    tw.VertexId(3, ())
    tw.VertexId(3, (2,))
    tw.VertexId(3, (2, 1, 0))
    with pytest.raises(ValidationError):
        tw.VertexId(3, (3,))  # root has d children: labels 0..d-1
    with pytest.raises(ValidationError):
        tw.VertexId(3, (0, 2))  # non-root vertices have d-1 children: labels 0..d-2


def test_vertex_id_navigation():
    v = tw.VertexId(3, (1, 0, 1))
    assert v.depth == 3
    assert v.parent() == tw.VertexId(3, (1, 0))
    assert v.child(0) == tw.VertexId(3, (1, 0, 1, 0))
    root = tw.VertexId(3, ())
    with pytest.raises(ValidationError):
        root.parent()
    assert root.child(2) == tw.VertexId(3, (2,))


def test_vertex_id_string_roundtrip():
    for addr in ((), (0,), (2, 1), (1, 0, 1, 1)):
        v = tw.VertexId(3, addr)
        assert tw.VertexId.from_string(3, v.to_string()) == v


def test_distance():
    root = tw.VertexId(3, ())
    a = tw.VertexId(3, (0,))
    b = tw.VertexId(3, (0, 0))
    c = tw.VertexId(3, (1,))
    assert tw.distance(root, root) == 0
    assert tw.distance(root, a) == 1
    assert tw.distance(a, b) == 1
    assert tw.distance(b, c) == 3
    assert tw.distance(c, b) == 3
    assert tw.distance(tw.VertexId(3, (0, 1)), tw.VertexId(3, (0, 0))) == 2
    with pytest.raises(ValidationError):
        tw.distance(root, tw.VertexId(4, ()))


def test_sphere_and_ball_sizes():
    assert [tw.sphere_size(3, k) for k in range(4)] == [1, 3, 6, 12]
    assert [tw.ball_vertex_count(3, r) for r in range(4)] == [1, 4, 10, 22]
    assert [tw.ball_vertex_count(4, r) for r in range(4)] == [1, 5, 17, 53]


def test_enumerate_ball_structure():
    for d, r in ((3, 3), (4, 2)):
        ball = tw.enumerate_ball(d, r)
        assert len(ball) == tw.ball_vertex_count(d, r)
        # BFS layout: sphere k occupies one contiguous slice
        for k in range(r + 1):
            sl = ball.sphere_slice(k)
            assert sl.stop - sl.start == tw.sphere_size(d, k)
            assert all(v.depth == k for v in ball.vertices[sl])
        verts = ball.vertices
        assert ball.parent[0] == -1
        assert len(ball.parent) == len(ball.depth) == len(ball)
        for ci in range(1, len(ball)):
            pi = ball.parent[ci]
            assert tw.distance(verts[pi], verts[ci]) == 1
            assert verts[ci].parent() == verts[pi]
            assert ball.depth[ci] == verts[ci].depth
        interior = ball.interior_indices()
        assert interior == range(tw.ball_vertex_count(d, r - 1))
        fans = np.bincount(ball.parent[1:], minlength=len(interior))
        assert len(fans) == len(interior)  # only interior vertices have children
        assert fans[0] == d
        assert (fans[1:] == d - 1).all()
        addrs = ball.addresses()
        assert len(addrs) == len(ball)
        for text, v, depth in zip(addrs, verts, ball.depth):
            u = tw.VertexId.from_string(d, text)
            assert u == v and u.depth == depth and u.to_string() == text


def test_ball_radius_zero_structure():
    ball = tw.enumerate_ball(3, 0)
    assert len(ball) == 1
    assert ball.addresses() == [""]
    assert ball.interior_indices() == range(0)
    assert ball.parent.tolist() == [-1] and ball.depth.tolist() == [0]
    assert not ball.parent.flags.writeable and not ball.depth.flags.writeable


def test_enumerate_ball_budget():
    with pytest.raises(ValidationError):
        tw.enumerate_ball(3, 30, max_vertices=1000)


def test_canonical_path():
    path = tw.canonical_path(3, 5)
    assert len(path) == 5
    assert path[0].depth == 0
    for a, b in zip(path, path[1:]):
        assert tw.distance(a, b) == 1


def test_pairwise_distances():
    ball = tw.enumerate_ball(3, 2)
    dist = tw.pairwise_distances(ball.vertices)
    assert dist.shape == (10, 10)
    assert dist.dtype.kind == "i"
    np.testing.assert_array_equal(dist, dist.T)
    np.testing.assert_array_equal(np.diag(dist), np.zeros(10, dtype=int))
    assert dist.max() == 4  # two leaves in different branches
    # against the pairwise `distance` on a deeper ball and an unordered subset
    verts = tw.enumerate_ball(4, 3).vertices
    subset = [verts[i] for i in (40, 0, 7, 52, 3, 19, 19)]
    for vs in (verts, subset):
        ref = [[tw.distance(u, v) for v in vs] for u in vs]
        np.testing.assert_array_equal(tw.pairwise_distances(vs), ref)
    assert tw.pairwise_distances([]).shape == (0, 0)
    with pytest.raises(ValidationError):
        tw.pairwise_distances([tw.VertexId(3, ()), tw.VertexId(4, ())])
