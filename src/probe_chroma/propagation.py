"""Forced-colour propagation for partial k-colourings.

A vertex that sees k-1 distinct colours on its neighbours has only one
colour left; assign it and requeue the neighbours.  Whether a conflict
arises never depends on the processing order, and without one neither does
the fixpoint; with one, the colouring reached and the vertex named may.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass

from .graphs import Graph, PartialColouring


@dataclass(frozen=True)
class Conflict:
    """Witness that the partial colouring cannot be completed greedily.

    ``vertex`` sees all k colours on its closed neighbourhood: the smallest
    such id of the fixpoint this processing order reached, which another
    order may not reach.
    """

    vertex: int


def _seen_colours(g: Graph, colours, v):
    return {colours[w] for w in g.adj[v] if colours[w]}


def propagate(g: Graph, start: PartialColouring, *, skip=frozenset(),
              scan_seed=None):
    """Run the forced-colour fixpoint; return the extended colouring or a
    :class:`Conflict`.

    Vertices in ``skip`` are treated as absent: they must be uncoloured in
    ``start`` and are never queued, coloured or checked for a conflict.
    ``scan_seed`` permutes the initial worklist order, so that tests can
    exercise the order claims of the module docstring.
    """
    k = start.k
    colours = list(start.colours)
    if any(colours[v] for v in skip):
        raise ValueError("skipped vertices must be uncoloured")
    live = [v for v in range(g.n) if v not in skip]
    order = list(live)
    if scan_seed is not None:
        random.Random(scan_seed).shuffle(order)
    queue = deque(v for v in order if colours[v] == 0)
    # a skipped vertex starts marked as queued and is never popped, so it is
    # never appended either
    queued = [colours[v] == 0 for v in range(g.n)]
    while queue:
        v = queue.popleft()
        queued[v] = False
        # a vertex is coloured only when it is popped, so v is still open
        seen = _seen_colours(g, colours, v)
        if len(seen) == k - 1:
            missing = next(c for c in range(1, k + 1) if c not in seen)
            colours[v] = missing
            for w in g.adj[v]:
                if colours[w] == 0 and not queued[w]:
                    queued[w] = True
                    queue.append(w)
    for v in live:
        if len(_seen_colours(g, colours, v)) == k:
            return Conflict(v)
    return PartialColouring(k, tuple(colours))
