"""The verdict digest of ``tests/verdict_signature.py``.

``PINNED`` makes "same verdicts" a test: any change to a status,
colouring, diagnostic, branch count or 2-SAT round count on the first
``PINNED_DRAWS`` draws fails it.  3,000 draws reach the ``drop_j`` attempt
of the |C|=3 case 57 times; 300 reach it 3 times.  A change that alters
verdicts on purpose updates the pin and records why in CHANGES.md.  Pinned
under CPython 3.11.7.
"""

import verdict_signature

PINNED = "2c5c2288416608fb875feedba401884d97fbead0cb51068efa62a9486fd15121"
PINNED_DRAWS = 3000


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
