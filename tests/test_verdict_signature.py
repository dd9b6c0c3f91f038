"""The verdict digest of ``tests/verdict_signature.py`` over 300 draws.

``PINNED`` makes "same verdicts" a test: any change to a status,
colouring, diagnostic, branch count or 2-SAT round count on those draws
fails it.  A change that alters verdicts on purpose updates the pin and
records why in CHANGES.md.  Pinned under CPython 3.11.7.
"""

import verdict_signature

PINNED = "d243eb6d7ad065cde874e36b508a672eda869fa5f6185b28dd0898718abe6335"


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
    assert verdict_signature.signature(300)[0] == PINNED
