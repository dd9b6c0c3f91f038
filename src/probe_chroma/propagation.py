"""Forced-colour propagation for partial 3-colourings.

A branch's state is a colour list (0 for uncoloured) and the seen-colour
mask of every vertex beside it.  A vertex that sees two colours on its
neighbours has only one colour left; assign it and add it to its
neighbours' masks.  Whether a conflict arises never depends on the
processing order, and without one neither does the fixpoint; with one, the
colouring reached and the vertex named may.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph

FREE = tuple(tuple(c for c in (1, 2, 3) if not mask >> (c - 1) & 1)
             for mask in range(8))


@dataclass(frozen=True)
class Conflict:
    """Witness that the partial colouring cannot be completed greedily.

    ``vertex`` sees all three colours on its closed neighbourhood: the
    smallest such id of the fixpoint this processing order reached, which
    another order may not reach.
    """

    vertex: int


def seen_masks(g: Graph, colours, skip=frozenset()) -> list:
    """Per vertex, the mask of the colours on its neighbours: bit c-1 for
    colour c, and ``FREE[mask]`` lists the colours left open, ascending.
    Vertices in ``skip`` are treated as absent, so they must be uncoloured."""
    if any(colours[v] for v in skip):
        raise ValueError("skipped vertices must be uncoloured")
    masks = [0] * g.n
    for v, c in enumerate(colours):
        if c:
            bit = 1 << (c - 1)
            for w in g.adj[v]:
                masks[w] |= bit
    return masks


def paint(g: Graph, colours: list, masks: list, assignment):
    """Give each uncoloured vertex of the ``(vertex, colour)`` pairs of
    ``assignment`` its colour in ``colours``, and add the colour to its
    neighbours' ``masks``; a colour outside 1..3 raises ValueError."""
    for v, c in assignment:
        if not 0 < c < 4:
            raise ValueError(f"colour {c} outside 1..3")
        colours[v] = c
        bit = 1 << (c - 1)
        for w in g.adj[v]:
            masks[w] |= bit


def propagate(g: Graph, colours: list, masks: list, skip=frozenset()):
    """Run the forced-colour fixpoint on ``colours`` and their seen-colour
    ``masks`` in place; return a :class:`Conflict`, a live vertex whose mask
    is full, or None.

    ``masks`` must be ``seen_masks(g, colours)``, and they stay so.
    Vertices in ``skip`` are treated as absent: they must be uncoloured and
    are never queued, coloured or checked for a conflict.  An open vertex is
    queued once, when its mask first holds two colours.  After a conflict
    the two lists hold a partial fixpoint and are dropped by the caller.
    """
    if any(colours[v] for v in skip):
        raise ValueError("skipped vertices must be uncoloured")
    queue = deque(v for v in range(g.n) if not colours[v]
                  and len(FREE[masks[v]]) == 1 and v not in skip)
    while queue:
        v = queue.popleft()
        free = FREE[masks[v]]
        if not free:
            continue  # a conflict, named by the final scan
        colours[v] = free[0]
        bit = 1 << (free[0] - 1)
        for w in g.adj[v]:
            mask = masks[w]
            if not mask & bit:
                masks[w] = mask = mask | bit
                if len(FREE[mask]) == 1 and not colours[w] and w not in skip:
                    queue.append(w)
    for v in range(g.n):
        if not FREE[masks[v]] and v not in skip:
            return Conflict(v)
    return None
