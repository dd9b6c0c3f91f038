"""The verdict digest of ``tests/verdict_signature.py``.

``PINNED`` makes "same verdicts" a test: any change to a status,
colouring, diagnostic, branch count or 2-SAT round count on the first
``PINNED_DRAWS`` draws fails it.  ``STATUSES`` and ``CLAIMS`` pin only the
verdict counts per (solver, status) and the refusal counts per (solver,
claim) of the same draws, so a change that alters certificates or branch
counts but no status moves ``PINNED`` alone.  3,000 draws reach the
attempt of the |C|=3 case that drops J 57 times; 300 reach it 3 times.  A
change that alters verdicts on purpose updates the pin, and the one-command
pin in README.md, and records why in CHANGES.md.  Pinned under CPython
3.11.7.
"""

import re
from collections import Counter
from pathlib import Path

import pytest

import verdict_signature

README = Path(__file__).resolve().parents[1] / "README.md"

PINNED = "7b0d01ce4a18cc4a4367b89d6fe0e1786791eb5c69a85c14172cee5e18e756c9"
PINNED_DRAWS = 3000
STATUSES = {
    ("solve_3col", "colourable"): 2170,
    ("solve_3col", "not_colourable"): 788,
    ("solve_3col", "not_probe_p5_free"): 42,
    ("solve_3col_p3sp1", "colourable"): 454,
    ("solve_3col_p3sp1", "not_colourable"): 218,
    ("solve_3col_p3sp1", "not_probe_p5_free"): 78,
}
CLAIMS = {
    ("solve_3col", "attachment-colours-differ"): 1,
    ("solve_3col", "j-not-component-closed"): 5,
    ("solve_3col", "long-induced-odd-cycle"): 1,
    ("solve_3col", "open-list-too-long"): 33,
    ("solve_3col", "two-odd-probe-components"): 2,
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


def test_readme_command_expects_the_current_digest():
    command = re.search(
        r"verdict_signature\.py --draws (\d+) \\\n\s+--expect ([0-9a-f]{64})\n",
        README.read_text())
    assert command is not None
    assert command[1] == "20000"
    assert verdict_signature.signature(20000)[0] == command[2]


def test_expect_exits_1_and_prints_both_digests_when_they_differ(capsys):
    digest = verdict_signature.signature(20)[0]
    assert verdict_signature.main(["--draws", "20", "--expect", digest]) == 0
    assert "differs" not in capsys.readouterr().out
    wrong = "0" * 64
    assert verdict_signature.main(["--draws", "20", "--expect", wrong]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert wrong in last and digest in last


def test_expect_rejects_an_abbreviated_digest_as_a_usage_error(capsys):
    digest = verdict_signature.signature(1)[0]
    for short in (f"{digest[:8]}…{digest[-4:]}", digest[:8], digest[:63],
                  digest + "0", "g" * 64):
        with pytest.raises(SystemExit) as e:
            verdict_signature.main(["--draws", "1", "--expect", short])
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert "64 hex digits" in captured.err and not captured.out
    assert verdict_signature.main(
        ["--draws", "1", "--expect", digest.upper()]) == 0
