"""The verdict digest of ``tests/verdict_signature.py``.

``PINNED`` makes "same verdicts" a test: any change to a status,
colouring, diagnostic, branch count or 2-SAT round count on the first
``PINNED_DRAWS`` draws fails it.  ``STATUSES`` and ``CLAIMS`` pin only the
verdict counts per (solver, status) and the refusal counts per (solver,
claim) of the same draws, so a change that alters certificates or branch
counts but no status moves ``PINNED`` alone.  3,000 draws reach the
``drop_j`` attempt of the |C|=3 case 57 times; 300 reach it 3 times.  A
change that alters verdicts on purpose updates the pin and records why in
CHANGES.md.  Pinned under CPython 3.11.7.
"""

from collections import Counter

import verdict_signature

PINNED = "e9ab44b4c0c624744f02d2b62c3b5c2dac856294338c5c7475c0908a6871523a"
PINNED_DRAWS = 3000
STATUSES = {
    ("solve_3col", "colourable"): 2170,
    ("solve_3col", "not_colourable"): 790,
    ("solve_3col", "not_probe_p5_free"): 40,
    ("solve_3col_p3sp1", "colourable"): 454,
    ("solve_3col_p3sp1", "not_colourable"): 218,
    ("solve_3col_p3sp1", "not_probe_p5_free"): 78,
}
CLAIMS = {
    ("solve_3col", "attachment-colours-differ"): 1,
    ("solve_3col", "j-not-component-closed"): 5,
    ("solve_3col", "long-induced-odd-cycle"): 1,
    ("solve_3col", "open-list-too-long"): 33,
    ("solve_3col_p3sp1", "induced-pattern-among-probes"): 78,
}


def test_digest_is_repeatable_and_sees_every_status():
    digest, counts = verdict_signature.signature(300)
    assert verdict_signature.signature(300)[0] == digest
    assert len(digest) == 64
    for solver in ("solve_3col", "solve_3col_p3sp1"):
        statuses = {status for name, status in counts if name == solver}
        assert statuses == {"colourable", "not_colourable",
                            "not_probe_p5_free"}
    assert sum(counts.values()) == 300 + 75


def test_digest_matches_the_pin():
    assert verdict_signature.signature(PINNED_DRAWS)[0] == PINNED


def test_statuses_match_the_pin():
    claims = Counter()
    _, counts = verdict_signature.signature(PINNED_DRAWS, claims=claims)
    assert dict(counts) == STATUSES
    assert dict(claims) == CLAIMS
