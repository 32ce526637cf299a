import numpy as np
import pytest

import treewaves as tw
from treewaves.errors import ValidationError
from treewaves.tree import shell_sizes

from tree_reference import address_index, ball_addresses, to_string, tuple_distance


def test_distance():
    # hand-counted distances, read off the d=3 radius-2 ball by address
    ball = tw.enumerate_ball(3, 2)
    at = {a: i for i, a in enumerate(ball.addresses())}
    dist = tw.pairwise_distances(ball)
    root, a, b, c = at[""], at["0"], at["0/0"], at["1"]
    assert dist[root, root] == 0
    assert dist[root, a] == 1
    assert dist[a, b] == 1
    assert dist[b, c] == 3
    assert dist[c, b] == 3
    assert dist[at["0/1"], at["0/0"]] == 2
    assert dist[at["0/1"], at["2/0"]] == 4


def test_sphere_and_ball_sizes():
    assert [tw.sphere_size(3, k) for k in range(4)] == [1, 3, 6, 12]
    assert [tw.ball_vertex_count(3, r) for r in range(4)] == [1, 4, 10, 22]
    assert [tw.ball_vertex_count(4, r) for r in range(4)] == [1, 5, 17, 53]


def test_enumerate_ball_structure():
    for d, r in ((3, 3), (4, 2), (3, 0), (5, 1)):
        ball = tw.enumerate_ball(d, r)
        ref = ball_addresses(d, r)
        index = address_index(ref)
        assert len(ball) == tw.ball_vertex_count(d, r) == len(ref)
        sizes = [tw.sphere_size(d, k) for k in range(r + 1)]
        assert ball.starts.tolist() == np.cumsum([0] + sizes).tolist()
        assert not ball.starts.flags.writeable
        # BFS layout: sphere k occupies one contiguous slice
        for k in range(r + 1):
            sl = ball.sphere_slice(k)
            start = 0 if k == 0 else tw.ball_vertex_count(d, k - 1)
            assert (sl.start, sl.stop) == (start, tw.ball_vertex_count(d, k))
            assert all(len(a) == k for a in ref[sl])
        assert ball.parent[0] == -1
        assert len(ball.parent) == len(ball.depth) == len(ball)
        for ci in range(1, len(ball)):
            assert ball.parent[ci] == index[ref[ci][:-1]]
        assert ball.depth.tolist() == [len(a) for a in ref]
        interior = ball.interior_indices()
        assert interior == range(tw.ball_vertex_count(d, r - 1) if r else 0)
        fans = np.bincount(ball.parent[1:], minlength=len(interior))
        # only interior vertices have children: d at the root, d - 1 below
        assert fans.tolist() == ([d] + [d - 1] * len(interior))[: len(interior)]
        assert ball.addresses() == [to_string(a) for a in ref]


@pytest.mark.parametrize("d", [3, 4, 10, 11, 12])
def test_address_bytes_match_reference_with_two_digit_labels(d):
    # from d = 11 on labels have two digits: a one-digit label leaves a NUL
    # inside its fixed-width slot, which the decode deletes
    for r in range(4):
        ball = tw.enumerate_ball(d, r)
        ref = [to_string(a) for a in ball_addresses(d, r)]
        raw = ball.address_bytes()
        assert raw.dtype.kind == "S" and raw.shape == (len(ball),)
        assert [a.replace(b"\0", b"").decode() for a in raw.tolist()] == ref
        assert ball.addresses() == ref
    if d >= 11:
        assert b"\0" in tw.enumerate_ball(d, 2).address_bytes()[d + 1]


def test_ball_radius_zero_structure():
    ball = tw.enumerate_ball(3, 0)
    assert len(ball) == 1
    assert ball.addresses() == [""]
    assert ball.address_bytes().tolist() == [b""]
    assert ball.interior_indices() == range(0)
    assert ball.parent.tolist() == [-1] and ball.depth.tolist() == [0]
    assert not ball.parent.flags.writeable and not ball.depth.flags.writeable


def test_enumerate_ball_budget():
    with pytest.raises(ValidationError):
        tw.enumerate_ball(3, 30)  # 3221225470 vertices, over the default budget


def test_enumerate_ball_budget_is_inclusive():
    for d, r in ((3, 5), (4, 3)):
        count = tw.ball_vertex_count(d, r)
        assert sum(shell_sizes(d, r, count)) == count
        with pytest.raises(ValidationError):
            shell_sizes(d, r, count - 1)


def test_pairwise_distances():
    ball = tw.enumerate_ball(3, 2)
    dist = tw.pairwise_distances(ball)
    assert dist.shape == (10, 10)
    assert dist.dtype.kind == "i"
    np.testing.assert_array_equal(dist, dist.T)
    np.testing.assert_array_equal(np.diag(dist), np.zeros(10, dtype=int))
    assert dist.max() == 4  # two leaves in different branches
    # against the tuple-address distance on every pair
    for d, r in ((3, 0), (3, 1), (3, 4), (4, 3), (5, 2), (8, 2)):
        ref = ball_addresses(d, r)
        expect = [[tuple_distance(u, v) for v in ref] for u in ref]
        np.testing.assert_array_equal(tw.pairwise_distances(tw.enumerate_ball(d, r)), expect)


@pytest.mark.parametrize("call, message", [
    (lambda: tw.sphere_size(3, -1), "sphere radius must be >= 0, got -1"),
    (lambda: tw.ball_vertex_count(3, -1), "ball radius must be >= 0, got -1"),
    (lambda: shell_sizes(3, -1), "ball radius must be >= 0, got -1"),
    (lambda: tw.enumerate_ball(3, 2).sphere_slice(-1), "sphere -1 outside ball of radius 2"),
    (lambda: tw.enumerate_ball(3, 2).sphere_slice(3), "sphere 3 outside ball of radius 2"),
    (lambda: tw.sphere_size(3, 2.5), "sphere radius must be an integer, got 2.5"),
    (lambda: tw.ball_vertex_count(3, 2.5), "ball radius must be an integer, got 2.5"),
    (lambda: tw.enumerate_ball(3, True), "ball radius must be an integer, got True"),
], ids=["sphere_size", "ball_vertex_count", "shell_sizes", "sphere_slice-below",
        "sphere_slice-above", "sphere_size-float", "ball_vertex_count-float",
        "enumerate_ball-bool"])
def test_radius_checks(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message
