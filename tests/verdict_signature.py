"""Digest of the verdicts of both probe solvers over seeded random draws.

Two checkouts that print the same digest for the same ``--draws`` and
``--seed`` give the same status, colouring, diagnostic, branch count and
2-SAT round count on every draw.  Run from the repository root:

    PYTHONPATH=src python3 tests/verdict_signature.py --draws 20000

After the digest come the verdict counts per (solver, status) and the
refusal counts per (solver, claim).  With ``--expect HEX`` the script also
compares the digest with HEX, and when they differ it prints both and exits
with status 1:

    PYTHONPATH=src python3 tests/verdict_signature.py --draws 20000 --expect <hex>

HEX must be the full digest, 64 hex digits; an abbreviated one such as
``c207613e…7e3d`` is a usage error (exit status 2), raised before any draw.

Each draw is a random graph (n 5-12, edge density 0.15-0.55) with a random
independent nonprobe set.  It goes through ``solve_3col``; every fourth draw
also goes through ``solve_3col_p3sp1`` with s = 1 or 2.  The script uses only
names that have been public since the verdict pipeline was shared, so it
runs unchanged against older checkouts.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import re
import sys
from collections import Counter

from probe_chroma.graphs import build_graph, validate_probe_instance
from probe_chroma.solver import solve_3col
from probe_chroma.special import solve_3col_p3sp1


def draw(rng):
    """A random partitioned probe instance and the s for its P3+sP1 run."""
    n = rng.randint(5, 12)
    p = rng.uniform(0.15, 0.55)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    g = build_graph(n, edges)
    nonprobes = set()
    for v in rng.sample(range(n), n):
        if rng.random() < 0.5 and not g.adj[v] & nonprobes:
            nonprobes.add(v)
    inst = validate_probe_instance(
        g, frozenset(range(n)) - nonprobes, frozenset(nonprobes))
    return inst, rng.randint(1, 2)


def signature(draws, seed=0, claims=None):
    """(sha256 hex digest, Counter of (solver, status)) over ``draws`` draws.

    A Counter passed as ``claims`` also counts the refusals by (solver,
    claim); the digest does not depend on it.
    """
    rng = random.Random(seed)
    digest = hashlib.sha256()
    counts = Counter()
    for i in range(draws):
        inst, s = draw(rng)
        runs = [("solve_3col", solve_3col(inst))]
        if i % 4 == 0:
            runs.append(("solve_3col_p3sp1", solve_3col_p3sp1(inst, s)))
        for name, v in runs:
            counts[(name, v.status)] += 1
            if v.diagnostic is not None and claims is not None:
                claims[(name, v.diagnostic["claim"])] += 1
            record = (name, v.status, v.colouring, v.diagnostic,
                      v.stats.branches, v.stats.two_sat_calls)
            digest.update(repr(record).encode())
    return digest.hexdigest(), counts


def full_digest(text):
    """``text`` in lower case when it is 64 hex digits; else a usage error."""
    if not re.fullmatch(r"[0-9a-fA-F]{64}", text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a full sha256 digest of 64 hex digits")
    return text.lower()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--draws", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--expect", metavar="HEX", type=full_digest,
                    help="exit 1 unless the digest is HEX, 64 hex digits")
    args = ap.parse_args(argv)
    claims = Counter()
    hexdigest, counts = signature(args.draws, args.seed, claims)
    print(hexdigest)
    for (name, status), k in sorted(counts.items()):
        print(f"{name:17s} {status:18s} {k}")
    print("refusals by claim:")
    for (name, claim), k in sorted(claims.items()):
        print(f"{name:17s} {claim:29s} {k}")
    if args.expect is not None and args.expect != hexdigest:
        print(f"digest differs: expected {args.expect}, got {hexdigest}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
