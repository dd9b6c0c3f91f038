"""Input builders for the three workloads.

Every builder is a pure function of the workload seed.  Each case keeps the
benchmark's own copy of its edges and its reference verdict next to the
``ProbeInstance`` the program sees, and every instance's vertex ids go
through a seeded random permutation before the program gets it.

The generator draws are fixed (``GEN_SEED``) and family, order and density
follow a fixed grid; the workload seed permutes ids, the order of ops, the
pendants of the violators and the placement of many-components pieces.
With seeded draws, the cost of a 500-instance sweep pool moved by ~10% and
the union family's by a factor of four from one seed to the next, which
would swamp any change worth measuring.

``graphs`` and ``generators`` are the program's modules; they are looked up
at call time so that a traced set-up sees the wrapped functions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import three_colouring

GEN_SEED = 0
SWEEP_POOL = 500
SWEEP_ORDERS = (6, 24)
DENSITIES = (0.15, 0.7)
SWEEP_FAMILIES = (None, "path-split", "pentagon", "split-pure", "union", "trianglefree")
VIOLATOR_EVERY = 10  # one sweep-small case in ten breaks the promise
VIOLATOR_HOLES = (7, 9, 11)
VIOLATOR_MAX_PENDANTS = 4

SCALE_N = 4000
SCALE_DENSITY = 0.4
SCALE_FAMILIES = ("path-split", "pentagon", "split-pure", "union")
BLOWUP_PART = 20  # five parts of 20: n = 100, m = 2000

MANY_N = 4000
MANY_POOL = 3
PIECE_LIBRARY = 320
PIECE_ORDERS = (3, 12)
PIECE_FAMILIES = (None, "path-split", "pentagon", "split-pure", "trianglefree")
BARE_EDGE_EVERY = 4  # one library piece in four is a bare probe-nonprobe edge


@dataclass(frozen=True)
class Case:
    shape: str
    n: int
    edges: tuple  # relabelled, each (u, v) with u < v
    probes: frozenset
    colourable: bool  # reference verdict
    violator: bool  # breaks the probe P5-free promise on purpose
    inst: object  # the ProbeInstance handed to solve_3col


def relabel(n, edges, probes, rng):
    """Apply a uniformly random permutation of ``0..n-1`` to the ids."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = sorted(
        (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
        for u, v in edges
    )
    return tuple(out), frozenset(perm[v] for v in probes)


def c5_blowup(part):
    """Every vertex of C5 replaced by an independent set of ``part`` vertices,
    consecutive sets completely joined.  All vertices are probes."""
    edges = [
        (i * part + a, ((i + 1) % 5) * part + b)
        for i in range(5) for a in range(part) for b in range(part)
    ]
    edges = [(u, v) if u < v else (v, u) for u, v in edges]
    return 5 * part, tuple(sorted(edges)), frozenset(range(5 * part))


def odd_hole_violator(length, pendants, rng):
    """An all-probe cycle of odd ``length`` with ``pendants`` nonprobe
    leaves hung on random cycle vertices."""
    edges = [(i, i + 1) for i in range(length - 1)] + [(0, length - 1)]
    edges += [(rng.randrange(length), length + j) for j in range(pendants)]
    return length + pendants, tuple(sorted(edges)), frozenset(range(length))


def _own_copy(inst):
    return inst.graph.n, tuple(inst.graph.edges), frozenset(inst.probes)


def _case(graphs, shape, n, edges, probes, rng, *, colourable=None, violator=False):
    edges, probes = relabel(n, edges, probes, rng)
    if colourable is None:
        colourable = three_colouring(n, edges) is not None
    g = graphs.build_graph(n, edges)
    inst = graphs.validate_probe_instance(g, probes, frozenset(range(n)) - probes)
    return Case(shape, n, edges, probes, colourable, violator, inst)


def build_sweep_small(graphs, generators, seed):
    """Small instances from every generator family, one in ten replaced by
    an odd-hole violator, in a seeded order."""
    rng = random.Random(f"sweep-small:{seed}")
    lo, hi = SWEEP_ORDERS
    d_lo, d_hi = DENSITIES
    cases = []
    for i in range(SWEEP_POOL):
        if i % VIOLATOR_EVERY == VIOLATOR_EVERY - 1:
            k = i // VIOLATOR_EVERY
            length = VIOLATOR_HOLES[k % len(VIOLATOR_HOLES)]
            n, edges, probes = odd_hole_violator(
                length, k % (VIOLATOR_MAX_PENDANTS + 1), rng)
            cases.append(_case(graphs, f"odd-hole-c{length}", n, edges, probes, rng,
                               violator=True))
            continue
        family = SWEEP_FAMILIES[i % len(SWEEP_FAMILIES)]
        order = lo + (i // len(SWEEP_FAMILIES)) % (hi - lo + 1)
        density = d_lo + (d_hi - d_lo) * (i * 7 % 25) / 24
        gen = generators.gen_probe_instance(
            order, density, (GEN_SEED, "sweep-small", i), family=family)
        cases.append(_case(graphs, family or "p5", *_own_copy(gen), rng))
    rng.shuffle(cases)
    return cases


def build_scale_families(graphs, generators, seed):
    """One large instance per engineered family plus the C5 blow-up, in a
    fixed order.  All are 3-colourable by construction."""
    rng = random.Random(f"scale-families:{seed}")
    cases = []
    for family in SCALE_FAMILIES:
        gen = generators.gen_probe_instance(
            SCALE_N, SCALE_DENSITY, GEN_SEED, family=family)
        cases.append(_case(graphs, family, *_own_copy(gen), rng, colourable=True))
    cases.append(_case(graphs, "c5-blowup", *c5_blowup(BLOWUP_PART), rng,
                       colourable=True))
    return cases


def piece_library(generators):
    """Small 3-colourable pieces as ``(n, edges, probes)`` triples: bare
    probe-nonprobe edges and generator instances whose reference check says
    3-colourable (others are redrawn)."""
    rng = random.Random(f"many-components:{GEN_SEED}:pieces")
    lo, hi = PIECE_ORDERS
    pieces = []
    for i in range(PIECE_LIBRARY):
        if i % BARE_EDGE_EVERY == 0:
            pieces.append((2, ((0, 1),), frozenset({0})))
            continue
        family = PIECE_FAMILIES[i % len(PIECE_FAMILIES)]
        order = lo + (i // len(PIECE_FAMILIES)) % (hi - lo + 1)
        for attempt in range(100):
            gen = generators.gen_probe_instance(
                order, rng.uniform(*DENSITIES),
                (GEN_SEED, "piece", i, attempt), family=family)
            n, edges, probes = _own_copy(gen)
            if n <= hi and three_colouring(n, edges) is not None:
                pieces.append((n, edges, probes))
                break
        else:
            raise RuntimeError(f"no 3-colourable piece drawn for library slot {i}")
    return pieces


def compose(pieces, target_n, rng):
    """Disjoint union of library pieces, taken in seeded shuffled passes over
    the whole library so that every piece appears about equally often,
    until ``target_n`` vertices are reached.  Returns
    ``(n, edges, probes, piece_count)``."""
    edges, probes = [], set()
    n = count = 0
    order = []
    while n < target_n:
        if not order:
            order = list(range(len(pieces)))
            rng.shuffle(order)
        pn, pedges, pprobes = pieces[order.pop()]
        edges.extend((u + n, v + n) for u, v in pedges)
        probes.update(v + n for v in pprobes)
        n += pn
        count += 1
    return n, tuple(edges), frozenset(probes), count


def build_many_components(graphs, generators, seed):
    """Instances of about ``MANY_N`` vertices made of ~650 small
    3-colourable pieces whose ids are interleaved by the relabelling."""
    pieces = piece_library(generators)
    rng = random.Random(f"many-components:{seed}")
    cases = []
    for _ in range(MANY_POOL):
        n, edges, probes, count = compose(pieces, MANY_N, rng)
        cases.append(_case(graphs, f"{count}-pieces", n, edges, probes, rng,
                           colourable=True))
    return cases


# name -> (builder, ops per cycle); a run stops only at a cycle boundary so
# that every run solves the same mix of shapes
WORKLOADS = {
    "sweep-small": (build_sweep_small, 1),
    "scale-families": (build_scale_families, len(SCALE_FAMILIES) + 1),
    "many-components": (build_many_components, MANY_POOL),
}
