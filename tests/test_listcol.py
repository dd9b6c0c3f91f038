import itertools
import random

import pytest
from hypothesis import assume, given, strategies as st

import helpers
from probe_chroma.errors import ListSizeError
from probe_chroma.graphs import (
    build_graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from probe_chroma.listcol import EqualityConstraint, solve_two_sat


class TestTwoSat:
    def test_two_clause_satisfiable(self):
        out = solve_two_sat(2, [(1, 2), (-1, 2)])
        assert out is not None and out[1] is True

    def test_forced_contradiction(self):
        assert solve_two_sat(1, [(1, 1), (-1, -1)]) is None

    def test_empty_formula(self):
        assert solve_two_sat(0, []) == []

    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=14),
    )
    def test_matches_truth_table(self, num_vars, raw):
        def lit(code):
            var = code // 2 % num_vars + 1
            return var if code % 2 == 0 else -var

        clauses = [(lit(a), lit(b)) for a, b in raw]
        out = solve_two_sat(num_vars, clauses)
        brute = helpers.brute_two_sat(num_vars, clauses)
        assert (out is None) == (brute is None)
        if out is not None:
            for a, b in clauses:
                val_a = out[a - 1] if a > 0 else not out[-a - 1]
                val_b = out[b - 1] if b > 0 else not out[-b - 1]
                assert val_a or val_b


class TestLists:
    def test_open_lists_on_cycle(self):
        g = cycle_graph(5)
        lists = helpers.compute_lists(g, (1, 2, 1, 0, 0))
        assert lists == {3: (2, 3), 4: (2, 3)}

    def test_all_coloured_means_no_vars(self):
        g = path_graph(3)
        f = helpers.formula(g, (1, 2, 1))
        assert f.num_vars == 0 and not f.unsat

    def test_list_overflow_names_vertex(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ListSizeError) as e:
            helpers.compute_lists(g, (0,) * 3)
        assert e.value.vertex == 0
        assert e.value.list_size == 3

    def test_formula_var_count_is_total_list_size(self):
        g = cycle_graph(5)
        f = helpers.formula(g, (1, 2, 1, 0, 0))
        assert f.num_vars == sum(len(row) for row in f.lists.values())
        assert f.num_vars == 4


class TestExtend:
    def test_cycle_last_vertex_forced(self):
        g = cycle_graph(5)
        out = helpers.extend_by_2list(g, (1, 2, 1, 2, 0))
        assert out == (1, 2, 1, 2, 3)

    def test_adjacent_singleton_lists_clash(self):
        g = complete_graph(4)
        out = helpers.extend_by_2list(g, (2, 3, 0, 0))
        assert out is None

    def test_equal_colours_on_an_edge_impossible(self):
        # vertex 2 of colour 3 leaves the edge 0-1 the lists (1, 2)
        g = complete_graph(3)
        eq = EqualityConstraint((0, 1), (1, 2))
        partial = (0, 0, 3)
        assert helpers.extend_by_2list(g, partial, [eq]) is None

    def test_cycle_two_open_vertices(self):
        g = cycle_graph(5)
        out = helpers.extend_by_2list(g, (1, 2, 1, 0, 0))
        assert out is not None
        assert (out[3], out[4]) in {(2, 3), (3, 2)}

    def test_chain_over_shared_open_list(self):
        # u and w both see only colour 1, so their lists are (2, 3)
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        partial = (1, 0, 1, 0, 1)
        eq = EqualityConstraint((1, 3), (2, 3))
        out = helpers.extend_by_2list(g, partial, [eq])
        assert out is not None
        assert out[1] == out[3]

    def test_chain_against_an_edge(self):
        # same shared (2, 3) lists, but the chained pair is adjacent
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        partial = (1, 0, 0, 1)
        eq = EqualityConstraint((1, 2), (2, 3))
        assert helpers.extend_by_2list(g, partial, [eq]) is None


cases = st.builds(
    lambda n, es, p, cs, qs: _case(n, es, p, cs, qs),
    st.integers(2, 8), st.integers(0, 10**6), st.floats(0.2, 0.8),
    st.integers(0, 10**6), st.integers(0, 10**6),
)


def _case(n, eseed, p, cseed, qseed):
    g = helpers.random_graph(n, p, random.Random(eseed))
    rng = random.Random(cseed)
    colours = [0] * n
    for v in rng.sample(range(n), rng.randint(n // 2, n)):
        free = {1, 2, 3} - {colours[w] for w in g.adj[v]}
        if free:
            colours[v] = rng.choice(sorted(free))
    qrng = random.Random(qseed)
    groups = []
    for _ in range(qrng.randint(0, 2)):
        size = qrng.randint(2, min(3, n))
        verts = tuple(qrng.sample(range(n), size))
        # full palette: a coupling never narrower than any member's open list
        groups.append(EqualityConstraint(verts, (1, 2, 3)))
    return g, tuple(colours), groups


def _brute_list_solutions(g, partial, lists, groups):
    verts = sorted(lists)
    for pick in itertools.product(*(lists[v] for v in verts)):
        full = list(partial)
        for v, c in zip(verts, pick):
            full[v] = c
        if any(full[u] == full[v] for u, v in g.edges):
            continue
        ok = True
        for eq in groups:
            for a, b in itertools.combinations(eq.vertices, 2):
                for c in eq.colours:
                    if (full[a] == c) != (full[b] == c):
                        ok = False
        if ok:
            yield tuple(full)


class TestExtendAgainstBrute:
    @given(cases)
    def test_feasibility_matches_and_output_valid(self, case):
        g, partial, groups = case
        try:
            lists = helpers.compute_lists(g, partial)
        except ListSizeError:
            assume(False)
        out = helpers.extend_by_2list(g, partial, groups)
        brute = set(_brute_list_solutions(g, partial, lists, groups))
        assert (out is not None) == bool(brute)
        if out is not None:
            assert out in brute


class TestListsAgainstSetReference:
    """The lists read off the seen-colour masks are the per-vertex set ones;
    the first vertex with three open colours is the one named."""

    @staticmethod
    def check(g, partial, skip=frozenset()):
        want = helpers.set_lists(g, partial, skip)
        too_long = [v for v, row in want.items() if len(row) > 2]
        if too_long:
            with pytest.raises(ListSizeError) as e:
                helpers.compute_lists(g, partial, skip)
            assert e.value.vertex == too_long[0]
            return False
        assert helpers.compute_lists(g, partial, skip) == want
        return True

    @given(cases)
    def test_random_partial_colourings(self, case):
        g, partial, _ = case
        self.check(g, partial)

    def test_skip_cases(self):
        listed = sum(self.check(g, partial, skip)
                     for g, partial, skip in helpers.skip_cases(400, 14))
        assert 0 < listed < 400


class TestSkip:
    def test_matches_the_copy_without_skip(self):
        outcomes = set()
        for g, start, skip in helpers.skip_cases(400, 12):
            sub, sub_start, back = helpers.without(g, start, skip)
            try:
                want = helpers.map_back(
                    g.n, helpers.extend_by_2list(sub, sub_start), back)
            except ListSizeError as e:
                with pytest.raises(ListSizeError) as got:
                    helpers.extend_by_2list(g, start, (), skip)
                assert got.value.vertex == back[e.vertex]
                outcomes.add("too-long")
                continue
            assert helpers.extend_by_2list(g, start, (), skip) == want
            outcomes.add("none" if want is None else "extended")
        assert outcomes == {"too-long", "none", "extended"}

    def test_skipped_vertex_seeing_three_colours_stays_blank(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        start = (0, 1, 2, 3)
        assert helpers.extend_by_2list(g, start) is None
        assert helpers.extend_by_2list(g, start, (), {0}) == start

    def test_coloured_skip_vertex_rejected(self):
        with pytest.raises(ValueError):
            helpers.compute_lists(
                path_graph(3), (0, 2, 0), {1})


class TestTiedVertices:
    """Only vertices that share a list colour with a listed neighbour, or
    sit in an equality, get variables; the colouring is the one the full
    encoding over every listed vertex gives."""

    @staticmethod
    def draws():
        rng = random.Random(19)
        for _ in range(400):
            g, partial, groups = _case(
                rng.randint(2, 8), rng.randrange(10**6), rng.uniform(0.2, 0.8),
                rng.randrange(10**6), rng.randrange(10**6))
            yield g, partial, groups, frozenset()
        for g, partial, skip in helpers.skip_cases(400, 23):
            groups = [EqualityConstraint(tuple(rng.sample(range(g.n), 2)),
                                         (1, 2, 3))
                      for _ in range(rng.randint(0, 2))]
            yield g, partial, groups, skip

    def test_matches_the_full_encoding(self, monkeypatch):
        from probe_chroma import listcol

        built = []
        real = listcol.build_list_formula

        def counted(*args):
            built.append(args)
            return real(*args)
        monkeypatch.setattr(listcol, "build_list_formula", counted)
        seen = set()
        for g, partial, groups, skip in self.draws():
            try:
                want = helpers.full_extension(g, partial, groups, skip)
            except ListSizeError as e:
                with pytest.raises(ListSizeError) as got:
                    helpers.extend_by_2list(g, partial, groups, skip)
                assert got.value.vertex == e.vertex
                seen.add("too-long")
                continue
            # the helper builds its formula through listcol too: before
            # the count
            f = helpers.formula(g, partial, groups, skip)
            built.clear()
            assert helpers.extend_by_2list(g, partial, groups, skip) == want
            # a formula is built exactly when there are equalities or two
            # listed neighbours share a list colour
            tied = bool(groups) or f.num_vars > 0
            assert len(built) == tied
            seen.add("tied" if tied else "no-tie")
            untied = [v for v, row in f.lists.items()
                      if row and (v, row[0]) not in f.var_of]
            seen.add("none" if want is None else "extended")
            if want is not None and any(len(f.lists[v]) == 2 for v in untied):
                seen.add("untied-two-list")
            if want is not None and f.num_vars and groups:
                seen.add("tied-with-equality")
        assert seen == {"too-long", "none", "extended", "untied-two-list",
                        "tied-with-equality", "no-tie", "tied"}

    def test_untied_two_list_vertex_takes_its_least_colour(self):
        # 0 sees colour 1 (list 2, 3); its listed neighbour 1 sees 2 and 3
        g = build_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
        partial = (0, 0, 1, 2, 3)
        f = helpers.formula(g, partial)
        assert f.lists == {0: (2, 3), 1: (1,)}
        assert f.num_vars == 0 and f.var_of == {} and f.clauses == ()
        assert helpers.extend_by_2list(g, partial) == (2, 1, 1, 2, 3)

    def test_adjacent_same_colour_singletons_stay_unsatisfiable(self):
        g = complete_graph(4)
        partial = (2, 3, 0, 0)
        f = helpers.formula(g, partial)
        assert f.lists == {2: (1,), 3: (1,)}
        assert f.var_of == {(2, 1): 0, (3, 1): 1}
        assert helpers.extend_by_2list(g, partial) is None

    def test_vertex_tied_only_by_an_equality_gets_variables(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        partial = (1, 0, 1, 0, 1)
        assert helpers.formula(g, partial).num_vars == 0
        eq = EqualityConstraint((1, 3), (2, 3))
        f = helpers.formula(g, partial, [eq])
        assert sorted(f.var_of) == [(1, 2), (1, 3), (3, 2), (3, 3)]

    @pytest.mark.parametrize("family", ["pentagon", "split-pure", "union"])
    def test_promise_inputs_build_no_variables(self, family, monkeypatch):
        from probe_chroma import listcol
        from probe_chroma.generators import gen_probe_instance
        from probe_chroma.solver import COLOURABLE, solve_3col

        sizes = []
        real = listcol.build_list_formula

        def counted(*args, **kwargs):
            f = real(*args, **kwargs)
            sizes.append(f.num_vars)
            return f
        monkeypatch.setattr(listcol, "build_list_formula", counted)
        v = solve_3col(gen_probe_instance(2000, 0.4, 7, family=family))
        assert v.status == COLOURABLE
        # the solve takes 2-SAT rounds, and none of them has a variable
        assert v.stats.two_sat_calls and sum(sizes) == 0
