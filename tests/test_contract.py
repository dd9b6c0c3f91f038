"""The failure contract of the solvers: what ``solve_3col`` returns, what it
raises, and where a refusal's claim names are documented."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from probe_chroma.errors import CapabilityError, PromiseViolation
from probe_chroma.graphs import (
    build_graph,
    cycle_graph,
    pattern_graph,
    validate_probe_instance,
)
from probe_chroma.oracles import oracle_is_probe_hfree, oracle_k_colourable
from probe_chroma.solver import (
    COLOURABLE,
    NOT_COLOURABLE,
    NOT_PROBE_P5_FREE,
    SolveStats,
    certify,
    run_solver,
    solve_3col,
    verify_colouring,
)

ROOT = Path(__file__).resolve().parents[1]
P5 = pattern_graph("p5")


def all_probe(g):
    return validate_probe_instance(g, frozenset(range(g.n)), frozenset())


@st.composite
def probe_instances(draw):
    """Any graph on at most 10 vertices with a random independent nonprobe
    set; most of them break the promise."""
    n = draw(st.integers(1, 10))
    density = draw(st.floats(0.0, 1.0))
    rng = draw(st.randoms(use_true_random=False))
    g = helpers.random_graph(n, density, rng)
    share = rng.random()
    nonprobes = set()
    for v in rng.sample(range(n), n):
        if rng.random() < share and not g.adj[v] & nonprobes:
            nonprobes.add(v)
    return validate_probe_instance(
        g, frozenset(range(n)) - nonprobes, frozenset(nonprobes)
    )


class TestVerdictContract:
    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(probe_instances())
    def test_every_instance_gets_a_sound_verdict(self, inst):
        g = inst.graph
        v = solve_3col(inst)
        assert v.status in (COLOURABLE, NOT_COLOURABLE, NOT_PROBE_P5_FREE)
        if v.status == COLOURABLE:
            assert verify_colouring(g, v.colouring) is None
        if v.status == NOT_PROBE_P5_FREE:
            assert v.diagnostic["witnesses"]
            assert set(v.diagnostic["witnesses"]) <= set(range(g.n))
        if oracle_is_probe_hfree(g, P5, inst.nonprobes) is not None:
            assert v.status != NOT_PROBE_P5_FREE
            colourable = oracle_k_colourable(g, 3) is not None
            assert v.status == (COLOURABLE if colourable else NOT_COLOURABLE)

    def test_fallback_past_the_oracle_cap_escapes(self):
        with pytest.raises(CapabilityError):
            solve_3col(all_probe(cycle_graph(31)), oracle_fallback=True)


class TestCertify:
    def test_improper_colouring_becomes_a_refusal(self):
        v = run_solver(cycle_graph(5), SolveStats(), lambda: [1, 2, 1, 2, 1])
        assert v.status == NOT_PROBE_P5_FREE
        assert v.colouring is None
        assert v.diagnostic["claim"] == "certificate-invalid"
        assert v.diagnostic["witnesses"] == [0, 4]

    def test_colour_out_of_range_names_the_vertex(self):
        with pytest.raises(PromiseViolation) as e:
            certify(cycle_graph(5), (1, 2, 1, 2, 4), "final")
        assert e.value.claim == "certificate-invalid"
        assert e.value.witnesses == [4]


class TestWitnessIds:
    def test_case2_open_list_names_an_input_vertex(self):
        # the 2-list round runs on a working graph without M_r; its witness
        # must come back as the input's vertex 6, not working-graph id 5
        edges = [(0, 1), (0, 2), (0, 4), (1, 5), (2, 3), (2, 5), (3, 5), (4, 6)]
        g = build_graph(7, edges)
        inst = validate_probe_instance(g, frozenset(range(7)) - {4}, frozenset({4}))
        v = solve_3col(inst)
        assert v.status == NOT_PROBE_P5_FREE
        assert v.diagnostic["claim"] == "open-list-too-long"
        assert v.diagnostic["witnesses"] == [6]


class TestClaimTable:
    def test_every_claim_is_documented(self):
        sources = (ROOT / "src" / "probe_chroma").glob("*.py")
        raised = {
            name
            for path in sources
            for name in re.findall(r'PromiseViolation\(\s*"([^"]+)"',
                                   path.read_text())
        }
        readme = (ROOT / "README.md").read_text()
        documented = set(re.findall(r"^\| `([a-z0-9-]+)` \|", readme, re.M))
        assert raised
        assert raised == documented
