import verdict_signature


def test_digest_is_repeatable_and_sees_every_status():
    digest, counts = verdict_signature.signature(300)
    assert verdict_signature.signature(300)[0] == digest
    assert len(digest) == 64
    for solver in ("solve_3col", "solve_3col_p3sp1"):
        statuses = {status for name, status in counts if name == solver}
        assert statuses == {"colourable", "not_colourable",
                            "not_probe_p5_free"}
    assert sum(counts.values()) == 300 + 75
