import itertools

import pytest

import helpers
from probe_chroma.errors import IndependenceError
from probe_chroma.generators import (
    X3CInstance,
    fixtures_counterexamples,
    gen_p5free_host,
    gen_precolext_reduction,
    gen_probe_instance,
    gen_x3c_reduction,
    graph_l,
    path_split_instance,
)
from probe_chroma.graphs import (
    build_graph,
    cycle_graph,
    find_induced_subgraph,
    find_k4,
    induced_subgraph,
    pattern_graph,
    two_colour_components,
)
from probe_chroma.oracles import (
    CompletionCertificate,
    oracle_is_probe_hfree,
    oracle_k_colourable,
)

_P5 = pattern_graph("p5")


def has_triangle(g):
    for u, v in g.edges:
        if g.adj[u] & g.adj[v]:
            return True
    return False


class TestHost:
    @pytest.mark.parametrize("n", [1, 2, 5, 9, 14, 22, 40])
    @pytest.mark.parametrize("density", [0.15, 0.5, 0.85])
    def test_always_p5_free(self, n, density):
        g = gen_p5free_host(n, density, seed=(n, density))
        assert g.n == n
        assert find_induced_subgraph(g, _P5) is None

    def test_large_order_splits_into_chunks(self):
        g = gen_p5free_host(70, 0.5, seed=3)
        assert g.n == 70
        assert find_induced_subgraph(g, _P5) is None

    @pytest.mark.parametrize("n", [183, 200, 400])
    def test_orders_past_the_chunk_cap(self, n):
        # a third of n exceeds the 60-vertex chunk cap here; the splitter
        # must keep slicing instead of demanding an oversized chunk
        g = gen_p5free_host(n, 0.5, seed=(n, "big"))
        assert g.n == n
        assert find_induced_subgraph(g, _P5) is None

    def test_deterministic(self):
        a = gen_p5free_host(12, 0.4, seed="x")
        b = gen_p5free_host(12, 0.4, seed="x")
        assert a == b

    def test_rejects_empty_order(self):
        with pytest.raises(ValueError):
            gen_p5free_host(0, 0.5, seed=1)


class TestDefaultInstances:
    @pytest.mark.parametrize("seed", range(8))
    def test_p5_instance_certified_by_meta_fill(self, seed):
        inst = gen_probe_instance(14, 0.5, seed)
        fill = inst.meta["fill"]
        assert fill is not None
        cert = CompletionCertificate(inst.graph, _P5, inst.nonprobes, fill)
        assert cert.verify()

    def test_meta_records_parameters(self):
        inst = gen_probe_instance(10, 0.3, 7)
        assert inst.meta["family"] == "p5"
        assert inst.meta["n"] == 10 and inst.meta["seed"] == 7
        assert inst.meta["fill_count"] == len(inst.meta["fill"])

    def test_deterministic(self):
        a = gen_probe_instance(16, 0.6, 11)
        b = gen_probe_instance(16, 0.6, 11)
        assert a.graph == b.graph and a.nonprobes == b.nonprobes

    @pytest.mark.parametrize("pattern", ["p3+1p1", "p2+1p1", "p2+2p1"])
    def test_aux_patterns_certified(self, pattern):
        pat = pattern_graph(pattern)
        for seed in range(4):
            inst = gen_probe_instance(10, 0.5, seed, pattern=pattern)
            cert = CompletionCertificate(
                inst.graph, pat, inst.nonprobes, inst.meta["fill"]
            )
            assert cert.verify()

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            gen_probe_instance(10, 0.5, 0, family="hexagon")


class TestPathSplitFamily:
    def test_roles_alternate(self):
        inst = gen_probe_instance(10, 0.5, 0, family="path-split")
        assert inst.probes == frozenset(range(0, 10, 2))
        assert inst.nonprobes == frozenset(range(1, 10, 2))
        assert inst.graph.m == 9

    def test_odd_order_rounds_up(self):
        inst = gen_probe_instance(7, 0.5, 0, family="path-split")
        assert inst.graph.n == 8

    def test_helper_validates(self):
        with pytest.raises(ValueError):
            path_split_instance(7)
        with pytest.raises(ValueError):
            path_split_instance(0)

    def test_already_p5_free_with_empty_fill(self):
        # an even path probe-partitioned this way carries its own witness
        inst = path_split_instance(8)
        cert = oracle_is_probe_hfree(inst.graph, _P5, inst.nonprobes)
        assert cert is not None and cert.verify()


class TestPentagonFamily:
    def test_structure(self):
        inst = gen_probe_instance(12, 0.5, 3, family="pentagon")
        g = inst.graph
        assert inst.probes == frozenset(range(5))
        for i in range(5):
            assert g.has_edge(i, (i + 1) % 5)
        for v in range(5, 12):
            nbrs = sorted(g.adj[v])
            assert len(nbrs) == 2
            i, j = nbrs
            assert (j - i) % 5 == 2 or (i - j) % 5 == 2

    def test_clique_fill_certificate(self):
        inst = gen_probe_instance(12, 0.5, 3, family="pentagon")
        cert = CompletionCertificate(
            inst.graph, _P5, inst.nonprobes, inst.meta["fill"]
        )
        assert cert.verify()

    def test_every_attachment_profile_is_p5_free_when_filled(self):
        for t in range(1, 5):
            for profile in itertools.product(range(5), repeat=t):
                edges = [(i, (i + 1) % 5) for i in range(5)]
                for slot, i in enumerate(profile):
                    v = 5 + slot
                    edges.append((i, v))
                    edges.append(((i + 2) % 5, v))
                edges.extend(
                    (a + 5, b + 5) for a, b in itertools.combinations(range(t), 2)
                )
                filled = build_graph(5 + t, edges)
                assert find_induced_subgraph(filled, _P5) is None


class TestSplitPureFamily:
    @pytest.mark.parametrize("seed", range(5))
    def test_split_no_k4_dominated(self, seed):
        inst = gen_probe_instance(15, 0.6, seed, family="split-pure")
        g = inst.graph
        assert helpers.split_partition(g) is not None
        assert find_k4(g) is None
        assert g.adj[0] == frozenset(range(1, 15))
        assert inst.meta["fill"] == ()

    def test_nonprobes_avoid_the_triangle(self):
        inst = gen_probe_instance(15, 0.6, 2, family="split-pure")
        assert not inst.nonprobes & {0, 1, 2}


class TestUnionFamily:
    def test_chunks_recorded_and_certified(self):
        inst = gen_probe_instance(13, 0.5, 4, family="union")
        assert len(inst.meta["chunks"]) >= 2
        assert set(inst.meta["chunks"]) <= {"path-split", "pentagon", "split-pure"}
        # a union is probe-P5-free iff every component is; for each chunk
        # family the full nonprobe clique happens to be a valid fill
        for comp in two_colour_components(inst.graph, range(inst.graph.n))[1]:
            sub, back = induced_subgraph(inst.graph, comp)
            nset = frozenset(
                i for i, v in enumerate(back) if v in inst.nonprobes
            )
            fill = tuple(
                (u, v)
                for u, v in itertools.combinations(sorted(nset), 2)
                if not sub.has_edge(u, v)
            )
            assert CompletionCertificate(sub, _P5, nset, fill).verify()


class TestTrianglefreeFamily:
    @pytest.mark.parametrize("seed", range(8))
    def test_no_triangles(self, seed):
        inst = gen_probe_instance(20, 0.5, seed, family="trianglefree")
        assert not has_triangle(inst.graph)
        assert inst.meta["family"] == "trianglefree"


class TestX3CReduction:
    def test_coverable_collection_is_colourable(self):
        x3c = X3CInstance(
            (1, 2, 3, 4, 5, 6),
            (frozenset({1, 2, 3}), frozenset({2, 3, 5}), frozenset({4, 5, 6})),
        )
        inst, s = gen_x3c_reduction(x3c)
        assert s == 3
        assert inst.nonprobes == frozenset(range(6))
        assert oracle_k_colourable(inst.graph, s) is not None

    def test_universe_not_divisible_gives_trivial_no(self):
        x3c = X3CInstance((1, 2, 3, 4), (frozenset({1, 2, 3}),))
        inst, s = gen_x3c_reduction(x3c)
        assert s == 1
        assert inst.graph.n == 2
        assert oracle_k_colourable(inst.graph, s) is None
        assert "note" in inst.meta

    def test_single_triple_single_colour(self):
        inst, s = gen_x3c_reduction(X3CInstance((1, 2, 3), (frozenset({1, 2, 3}),)))
        assert s == 1
        assert oracle_k_colourable(inst.graph, s) is not None

    def test_rejects_malformed_collections(self):
        with pytest.raises(ValueError):
            X3CInstance((1, 1, 2), (frozenset({1, 2, 3}),))
        with pytest.raises(ValueError):
            X3CInstance((1, 2, 3), (frozenset({1, 2}),))
        with pytest.raises(ValueError):
            X3CInstance((1, 2, 3), (frozenset({1, 2, 9}),))

    @pytest.mark.parametrize("seed", range(12))
    def test_equivalence_on_random_collections(self, seed):
        import random

        rng = random.Random(seed)
        universe = tuple(range(1, 7))
        pool = [frozenset(c) for c in itertools.combinations(universe, 3)]
        collection = tuple(rng.sample(pool, rng.randint(2, 5)))
        inst, s = gen_x3c_reduction(X3CInstance(universe, collection))
        want = helpers.exact_cover_exists(universe, collection)
        got = oracle_k_colourable(inst.graph, s) is not None
        assert got == want


class TestPrecolReduction:
    def bip_c6(self):
        g = cycle_graph(6)
        return g, (tuple(range(0, 6, 2)), tuple(range(1, 6, 2)))

    def test_cycle_gadget_extendable(self):
        g, sides = self.bip_c6()
        inst = gen_precolext_reduction(g, sides, 0, 2, 4)
        assert inst.graph.has_edge(0, 2) and inst.graph.has_edge(2, 4)
        assert inst.nonprobes == frozenset(sides[1])
        assert oracle_k_colourable(inst.graph, 3) is not None
        assert helpers.brute_extendable(g, (1, 0, 2, 0, 3, 0), 3)

    def test_preconditions(self):
        g, sides = self.bip_c6()
        with pytest.raises(ValueError):
            gen_precolext_reduction(g, sides, 0, 0, 2)
        with pytest.raises(ValueError):
            gen_precolext_reduction(g, sides, 0, 2, 1)
        with pytest.raises(ValueError):
            gen_precolext_reduction(g, (sides[0], sides[0]), 0, 2, 4)
        tri = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            gen_precolext_reduction(tri, ((0, 1), (2,)), 0, 1, 2)

    @pytest.mark.parametrize("seed", range(10))
    def test_equivalence_on_random_bipartite(self, seed):
        import random

        rng = random.Random(seed)
        na, nb = rng.randint(3, 5), rng.randint(2, 5)
        a = tuple(range(na))
        b = tuple(range(na, na + nb))
        edges = [
            (u, v) for u in a for v in b if rng.random() < 0.5
        ]
        g = build_graph(na + nb, edges)
        inst = gen_precolext_reduction(g, (a, b), 0, 1, 2)
        seed = (1, 2, 3) + (0,) * (na + nb - 3)
        want = helpers.brute_extendable(g, seed, 3)
        got = oracle_k_colourable(inst.graph, 3) is not None
        assert got == want


class TestFixtures:
    def test_catalogue_names(self):
        names = [f.name for f in fixtures_counterexamples()]
        assert names == [
            "C7", "C9", "C7-probe-p6", "L",
            "C4", "C6", "C8", "C10",
            "path-split-6", "path-split-8", "path-split-10",
        ]

    def test_l_graph_shape(self):
        g = graph_l()
        assert g.n == 10 and g.m == 21
        for i in range(5):
            top = g.adj[i] | {i}
            bottom = g.adj[i + 5] | {i + 5}
            assert top == bottom

    def test_flags_match_oracle(self):
        for fx in fixtures_counterexamples():
            pat = pattern_graph(fx.pattern)
            if fx.partition is not None:
                cert = oracle_is_probe_hfree(
                    fx.graph, pat, frozenset(fx.partition[1])
                )
            else:
                cert = oracle_is_probe_hfree(fx.graph, pat)
            assert (cert is not None) == fx.probe_free, fx.name
            if cert is not None:
                assert cert.verify()

    def test_c7_is_the_seven_cycle(self):
        fx = fixtures_counterexamples()[0]
        assert fx.graph == cycle_graph(7)
