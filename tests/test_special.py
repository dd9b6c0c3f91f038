import random

import pytest

import helpers
from probe_chroma.errors import CapabilityError
from probe_chroma.generators import gen_probe_instance
from probe_chroma.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    matching_graph,
    path_graph,
    validate_probe_instance,
)
from probe_chroma.oracles import oracle_k_colourable
from probe_chroma.solver import (
    COLOURABLE,
    NOT_COLOURABLE,
    NOT_PROBE_P5_FREE,
    solve_3col,
    verify_colouring,
)
from probe_chroma.special import (
    is_multi_p2_free,
    solve_3col_p3sp1,
)


def probe_inst(g, nonprobes):
    nset = frozenset(nonprobes)
    return validate_probe_instance(g, frozenset(range(g.n)) - nset, nset)


class TestTrianglefree:
    """Triangle-free probe P5-free inputs go through ``solve_3col`` like any
    other; each is 3-colourable (a bipartite probe side or a probe pentagon
    with classified attachments), so the answer is a checked colouring."""

    def assert_coloured(self, inst):
        v = solve_3col(inst)
        assert v.status == COLOURABLE, v.diagnostic
        assert verify_colouring(inst.graph, v.colouring) is None

    def test_bipartite_probe_side(self):
        self.assert_coloured(probe_inst(cycle_graph(6), range(1, 6, 2)))

    def test_pentagon_with_classified_attachments(self):
        edges = [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 2), (6, 1), (6, 3)]
        self.assert_coloured(probe_inst(build_graph(7, edges), {5, 6}))

    def test_long_odd_probe_cycle(self):
        # An all-probe C7 is triangle-free but breaks the promise: no
        # colouring is returned, and the refusal names the whole cycle.
        v = solve_3col(probe_inst(cycle_graph(7), ()))
        assert v.status == NOT_PROBE_P5_FREE
        assert v.colouring is None
        assert v.diagnostic["claim"] == "long-induced-odd-cycle"
        assert sorted(v.diagnostic["witnesses"]) == list(range(7))

    @pytest.mark.parametrize("seed", range(25))
    def test_generated_instances_properly_coloured(self, seed):
        self.assert_coloured(
            gen_probe_instance(18, 0.5, seed, family="trianglefree"))

    def test_mixed_components(self):
        pent = [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 2)]
        g = disjoint_union([build_graph(6, pent), cycle_graph(4)])
        self.assert_coloured(probe_inst(g, {5}))


class TestMultiP2Free:
    def test_triangle_has_no_two_matching(self):
        assert is_multi_p2_free(complete_graph(3), 1)

    def test_hexagon_has_one(self):
        assert not is_multi_p2_free(cycle_graph(6), 1)

    def test_zero_order_checks_any_edge(self):
        assert is_multi_p2_free(build_graph(4, []), 0)
        assert not is_multi_p2_free(path_graph(2), 0)

    def test_capability_limit(self):
        with pytest.raises(CapabilityError):
            is_multi_p2_free(complete_graph(3), 5)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("s", [1, 2])
    def test_matches_exhaustive_scan(self, seed, s):
        rng = random.Random((seed, s).__repr__())
        g = helpers.random_graph(7, rng.uniform(0.15, 0.7), rng)
        want = not helpers.exhaustive_induced(g, matching_graph(s + 1))
        assert is_multi_p2_free(g, s) == want


class TestP3sP1Solver:
    def test_probe_path_small_case(self):
        inst = probe_inst(path_graph(4), ())
        v = solve_3col_p3sp1(inst, 1)
        assert v.status == COLOURABLE
        assert verify_colouring(inst.graph, v.colouring) is None

    def test_clique_blocks(self):
        assert solve_3col_p3sp1(probe_inst(complete_graph(4), ()), 1).status \
            == NOT_COLOURABLE

    def test_p3_free_probe_side_split_route(self):
        # probes form 2K2; the nonprobe hub has degree 3 and survives deletion
        edges = [(0, 1), (2, 3), (4, 0), (4, 1), (4, 2)]
        inst = probe_inst(build_graph(5, edges), {4})
        v = solve_3col_p3sp1(inst, 1)
        assert v.status == COLOURABLE
        assert verify_colouring(inst.graph, v.colouring) is None
        assert v.colouring[4] == 3

    def test_probe_pattern_violation(self):
        v = solve_3col_p3sp1(probe_inst(path_graph(6), ()), 1)
        assert v.status == NOT_PROBE_P5_FREE
        assert v.diagnostic["claim"] == "induced-pattern-among-probes"

    def test_violation_witnesses_use_original_ids(self):
        g = disjoint_union([path_graph(2), path_graph(6)])
        v = solve_3col_p3sp1(probe_inst(g, ()), 1)
        assert v.status == NOT_PROBE_P5_FREE
        assert set(v.diagnostic["witnesses"]) <= set(range(2, 8))

    def test_ladder_refuses_instead_of_saying_uncolourable(self):
        # probes 0..19 are independent (a P3-free probe side); nonprobe
        # 20 + j sees j, j+1, j+2.  The graph is bipartite, and nonprobe 20
        # misses 17 > 3(s+2) probes: 0-20-1 plus probe 5 is an induced
        # P3+P1 with 20 as its only nonprobe
        edges = [(20 + j, j + d) for j in range(18) for d in range(3)]
        inst = probe_inst(build_graph(38, edges), range(20, 38))
        v = solve_3col_p3sp1(inst, 1)
        assert v.status == NOT_PROBE_P5_FREE
        assert v.diagnostic["claim"] == "too-many-probe-non-neighbours"
        assert v.diagnostic["witnesses"] == [20] + list(range(3, 20))
        assert solve_3col(inst).status == COLOURABLE

    def test_branching_route_with_nonprobe_cover(self):
        # star-with-path probes keep I_mis empty; nonprobe 6 forces an S pick
        edges = [(0, 1), (1, 2), (1, 3), (1, 4), (1, 5), (6, 3), (6, 0), (6, 5)]
        inst = probe_inst(build_graph(7, edges), {6})
        v = solve_3col_p3sp1(inst, 1)
        assert v.status == COLOURABLE
        assert verify_colouring(inst.graph, v.colouring) is None

    def test_low_degree_nonprobes_readded(self):
        inst = probe_inst(path_graph(4), {1, 3})
        v = solve_3col_p3sp1(inst, 1)
        assert v.status == COLOURABLE
        assert verify_colouring(inst.graph, v.colouring) is None

    def test_unsolvable_component_wins(self):
        g = disjoint_union([path_graph(4), complete_graph(4)])
        v = solve_3col_p3sp1(probe_inst(g, ()), 1)
        assert v.status == NOT_COLOURABLE

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_matches_oracle_on_certified_instances(self, seed, s):
        inst = gen_probe_instance(
            9 + seed % 4, 0.5, (s, seed), pattern=f"p3+{s}p1"
        )
        v = solve_3col_p3sp1(inst, s)
        assert v.status in (COLOURABLE, NOT_COLOURABLE)
        want = oracle_k_colourable(inst.graph, 3)
        assert (v.status == COLOURABLE) == (want is not None)
        if v.colouring is not None:
            assert verify_colouring(inst.graph, v.colouring) is None

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            solve_3col_p3sp1(probe_inst(path_graph(4), ()), -1)

    @staticmethod
    def copies(monkeypatch):
        """The vertex sets of every ``induced_subgraph`` call from now on."""
        from probe_chroma import graphs, solver, special

        out = []
        real = graphs.induced_subgraph

        def counted(g, vertices):
            out.append(tuple(vertices))
            return real(g, vertices)
        for module in (graphs, solver, special):
            if hasattr(module, "induced_subgraph"):
                monkeypatch.setattr(module, "induced_subgraph", counted)
        return out

    def test_connected_input_is_not_copied(self, monkeypatch):
        # a probe C5 and a nonprobe of degree 3: nothing is deleted, so the
        # one component is all of the input and is solved in place
        copies = self.copies(monkeypatch)
        g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                            (0, 5), (2, 5), (3, 5)])
        v = solve_3col_p3sp1(probe_inst(g, {5}), 1)
        assert v.status == COLOURABLE
        assert copies == []

    def test_each_component_is_copied_once(self, monkeypatch):
        # two such C5s and a nonprobe of degree 1 on the first, deleted:
        # each component of the rest is copied once, in input ids
        copies = self.copies(monkeypatch)
        c5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (2, 5), (3, 5)]
        g = build_graph(13, c5 + [(u + 6, v + 6) for u, v in c5] + [(0, 12)])
        v = solve_3col_p3sp1(probe_inst(g, {5, 11, 12}), 1)
        assert v.status == COLOURABLE
        assert verify_colouring(g, v.colouring) is None
        assert copies == [tuple(range(6)), tuple(range(6, 12))]

    def test_oracle_fallback_rescues_refused_component(self):
        inst = probe_inst(path_graph(6), ())
        assert solve_3col_p3sp1(inst, 1).diagnostic["claim"] \
            == "induced-pattern-among-probes"
        v = solve_3col_p3sp1(inst, 1, oracle_fallback=True)
        assert v.status == COLOURABLE
        assert verify_colouring(inst.graph, v.colouring) is None

    def test_witnesses_skip_deleted_nonprobes(self):
        # nonprobe 0 has degree 1 and is deleted before the P6 on 1..6 is
        # refused; the witnesses must still be ids of the input
        v = solve_3col_p3sp1(probe_inst(path_graph(7), {0}), 1)
        assert v.diagnostic["claim"] == "induced-pattern-among-probes"
        assert set(v.diagnostic["witnesses"]) <= set(range(1, 7))
