"""Plain-Python reference for ball addresses, independent of `tw.Ball`.

A vertex is the tuple of child labels on its path from the root: the root has
d children (labels 0..d-1), every other vertex d-1 (labels 0..d-2).
"""


def ball_addresses(d, r):
    """Address tuples of the radius-r ball by depth, lexicographic within a depth."""
    shells = [[()]]
    for k in range(1, r + 1):
        fan = d if k == 1 else d - 1
        shells.append([a + (c,) for a in shells[-1] for c in range(fan)])
    return [a for shell in shells for a in shell]


def address_index(addrs):
    return {a: i for i, a in enumerate(addrs)}


def tuple_distance(u, v):
    """Graph distance: both depths minus twice the shared prefix."""
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return len(u) + len(v) - 2 * k


def to_string(addr):
    return "/".join(str(c) for c in addr)
