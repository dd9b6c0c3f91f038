import random

import pytest
from hypothesis import given, settings, strategies as st

import helpers
from probe_chroma.errors import ListSizeError
from probe_chroma.graphs import build_graph, path_graph
from probe_chroma.listcol import EqualityConstraint, extend_by_2list
from probe_chroma.propagation import Conflict, paint, propagate, seen_masks


def seeded(g, assignment):
    return helpers.with_colours((0,) * g.n, assignment)


def coloured_set(pc):
    return {v for v, c in enumerate(pc) if c}


class TestExamples:
    def test_triangle_forces_third_colour(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        out = helpers.propagate(g, seeded(g, {0: 1, 1: 2}))
        assert out == (1, 2, 3)

    def test_star_conflict_at_centre(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        out = helpers.propagate(g, seeded(g, {1: 1, 2: 2, 3: 3}))
        assert out == Conflict(0)

    def test_path_with_single_seed_unchanged(self):
        g = path_graph(5)
        start = seeded(g, {0: 1})
        assert helpers.propagate(g, start) == start


proper_seeds = st.builds(
    lambda n, eseed, p, cseed: _graph_and_seed(n, eseed, p, cseed),
    st.integers(2, 8), st.integers(0, 10**6),
    st.floats(0.2, 0.8), st.integers(0, 10**6),
)


def _graph_and_seed(n, eseed, p, cseed):
    g = helpers.random_graph(n, p, random.Random(eseed))
    rng = random.Random(cseed)
    colours = [0] * n
    for v in rng.sample(range(n), rng.randint(0, n)):
        free = {1, 2, 3} - {colours[w] for w in g.adj[v]}
        if free:
            colours[v] = rng.choice(sorted(free))
    return g, tuple(colours)


class TestSoundness:
    @given(proper_seeds)
    def test_forced_colours_hold_in_every_extension(self, case):
        g, start = case
        out = helpers.propagate(g, start)
        exts = list(helpers.brute_extensions(g, start, 3))
        if isinstance(out, Conflict):
            assert not exts
            return
        for v in range(g.n):
            if out[v] and not start[v]:
                assert all(ext[v] == out[v] for ext in exts)

    @given(proper_seeds)
    def test_fixpoint_stays_proper(self, case):
        g, start = case
        out = helpers.propagate(g, start)
        if not isinstance(out, Conflict):
            assert helpers.is_proper_on(g, out)

    @given(proper_seeds)
    def test_monotone_and_idempotent(self, case):
        g, start = case
        out = helpers.propagate(g, start)
        if isinstance(out, Conflict):
            return
        assert coloured_set(out) >= coloured_set(start)
        for v in coloured_set(start):
            assert out[v] == start[v]
        assert helpers.propagate(g, out) == out


class TestConfluence:
    @given(proper_seeds, st.lists(st.integers(0, 10**6), min_size=3, max_size=6))
    def test_result_independent_of_scan_order(self, case, seeds):
        # relabelling the graph reorders the worklist and every adjacency scan
        g, start = case
        want = helpers.propagate(g, start)
        for seed in seeds:
            perm = helpers.shuffled_permutation(g.n, random.Random(seed))
            out = helpers.propagate(*helpers.relabel(g, start, perm))
            if isinstance(want, Conflict):
                assert isinstance(out, Conflict)
            else:
                assert not isinstance(out, Conflict)
                assert helpers.relabel_back(out, perm) == want

    def test_fixed_draw_independent_of_scan_order(self):
        # the few small hypothesis examples above rarely start with two
        # forced vertices; this fixed draw has hundreds that do
        rng = random.Random(14)
        conflicts = 0
        for _ in range(400):
            g, start = _graph_and_seed(rng.randint(2, 10), rng.randrange(10**6),
                                       rng.uniform(0.15, 0.7), rng.randrange(10**6))
            want = helpers.propagate(g, start)
            perm = helpers.shuffled_permutation(g.n, rng)
            out = helpers.propagate(*helpers.relabel(g, start, perm))
            if isinstance(want, Conflict):
                assert isinstance(out, Conflict)
                conflicts += 1
            else:
                assert not isinstance(out, Conflict)
                assert helpers.relabel_back(out, perm) == want
        assert 0 < conflicts < 400

    def test_with_a_skip_set_independent_of_scan_order(self):
        rng = random.Random(13)
        conflicts = 0
        for g, start, skip in helpers.skip_cases(400, 13):
            want = helpers.propagate(g, start, skip=skip)
            perm = helpers.shuffled_permutation(g.n, rng)
            h, h_start = helpers.relabel(g, start, perm)
            out = helpers.propagate(
                h, h_start, skip=frozenset(perm[v] for v in skip))
            if isinstance(want, Conflict):
                assert isinstance(out, Conflict)
                conflicts += 1
            else:
                assert not isinstance(out, Conflict)
                assert helpers.relabel_back(out, perm) == want
        assert 0 < conflicts < 400


class TestSkip:
    def test_matches_the_copy_without_skip(self):
        conflicts = 0
        for g, start, skip in helpers.skip_cases(400, 11):
            sub, sub_start, back = helpers.without(g, start, skip)
            want = helpers.propagate(sub, sub_start)
            if isinstance(want, Conflict):
                want = Conflict(back[want.vertex])
            else:
                want = helpers.map_back(g.n, want, back)
            assert helpers.propagate(g, start, skip=skip) == want
            conflicts += isinstance(want, Conflict)
        assert 0 < conflicts < 400

    def test_open_live_vertex_sees_at_most_one_colour(self):
        # the fixpoint the reference-cycle decomposition relies on
        checked = 0
        for g, start, skip in helpers.skip_cases(400, 12):
            out = helpers.propagate(g, start, skip=skip)
            if isinstance(out, Conflict):
                continue
            for v in range(g.n):
                if v in skip or out[v]:
                    continue
                seen = {out[w] for w in g.adj[v] if out[w]}
                assert len(seen) <= 1, (g.edges, start, skip, v)
                checked += 1
        assert checked

    def test_skipped_vertex_seeing_three_colours_is_no_conflict(self):
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        start = seeded(g, {1: 1, 2: 2, 3: 3})
        assert helpers.propagate(g, start) == Conflict(0)
        assert helpers.propagate(g, start, skip={0}) == start

    def test_skipped_vertex_is_never_coloured(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        start = seeded(g, {0: 1, 1: 2})
        assert helpers.propagate(g, start) == (1, 2, 3)
        assert helpers.propagate(g, start, skip={2}) == start

    def test_coloured_skip_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            helpers.propagate(g, seeded(g, {1: 2}), skip={1})


class TestAgainstSetReference:
    """The seen-colour masks give what per-vertex colour sets gave."""

    @staticmethod
    def check(g, start, skip=frozenset()):
        out = helpers.propagate(g, start, skip=skip)
        want = helpers.set_propagate(g, start, skip)
        assert isinstance(out, Conflict) == isinstance(want, Conflict)
        if not isinstance(want, Conflict):
            assert out == want
        return isinstance(want, Conflict)

    @given(proper_seeds)
    def test_random_partial_colourings(self, case):
        self.check(*case)

    def test_skip_cases(self):
        conflicts = sum(self.check(g, start, skip)
                        for g, start, skip in helpers.skip_cases(400, 13))
        assert 0 < conflicts < 400


def _branch_case(n, seed):
    """A graph on n vertices, a proper partial colouring, the part of it
    that is painted on last, a skip set among the uncoloured vertices and
    0-2 equality couplings."""
    rng = random.Random(seed)
    g = helpers.random_graph(n, rng.uniform(0.15, 0.8), rng)
    colours = [0] * n
    for v in rng.sample(range(n), rng.randint(0, n)):
        free = {1, 2, 3} - {colours[w] for w in g.adj[v]}
        if free:
            colours[v] = rng.choice(sorted(free))
    painted = {v: c for v, c in enumerate(colours) if c and rng.random() < 0.5}
    skip = frozenset(
        v for v in range(n) if not colours[v] and rng.random() < 0.3)
    groups = [EqualityConstraint(tuple(rng.sample(range(n), 2)),
                                 rng.choice(((1, 2, 3), (1, 2), (2, 3))))
              for _ in range(rng.randint(0, 2) if n >= 2 else 0)]
    return g, colours, painted, skip, groups


branch_cases = st.builds(_branch_case, st.integers(1, 12),
                         st.integers(0, 10**6))


class TestBranchState:
    """A branch carries one colour list and its seen-colour masks: ``paint``
    and ``propagate`` keep the masks equal to ``seen_masks`` of the list,
    and the in-place ``propagate`` and ``extend_by_2list`` give what their
    earlier forms on an immutable colouring gave."""

    @settings(max_examples=300)
    @given(branch_cases)
    def test_carried_masks_are_the_seen_masks(self, case):
        g, colours, painted, skip, _ = case
        state = [0 if v in painted else c for v, c in enumerate(colours)]
        masks = seen_masks(g, state)
        paint(g, state, masks, painted.items())
        assert state == colours
        assert masks == seen_masks(g, state)
        propagate(g, state, masks, skip)
        assert masks == seen_masks(g, state)

    @staticmethod
    def check_extend(g, partial, groups, skip):
        colours, masks = list(partial), seen_masks(g, partial)
        try:
            want = helpers.reference_extend_by_2list(g, partial, groups, skip)
        except ListSizeError as e:
            with pytest.raises(ListSizeError) as got:
                extend_by_2list(g, colours, masks, groups, skip)
            assert got.value.vertex == e.vertex
            return
        out = extend_by_2list(g, colours, masks, groups, skip)
        if want is None:
            # a failed round leaves the list as it was
            assert out is None and tuple(colours) == partial
        else:
            assert out is colours and tuple(colours) == want

    @settings(max_examples=300)
    @given(branch_cases)
    def test_matches_the_partial_colouring_forms(self, case):
        g, colours, _, skip, groups = case
        start = tuple(colours)
        self.check_extend(g, start, groups, skip)
        masks = seen_masks(g, colours)
        got = propagate(g, colours, masks, skip)
        want = helpers.reference_propagate(g, start, skip)
        if isinstance(want, Conflict):
            assert got == want
            return
        assert got is None and tuple(colours) == want
        self.check_extend(g, want, groups, skip)

    def test_skipped_vertices_must_be_uncoloured(self):
        g = path_graph(3)
        colours = [0, 2, 0]
        masks = seen_masks(g, colours)
        with pytest.raises(ValueError):
            propagate(g, colours, masks, {1})
        with pytest.raises(ValueError):
            extend_by_2list(g, colours, masks, (), {1})

    def test_paint_rejects_a_colour_outside_1_to_3(self):
        g = path_graph(2)
        for c in (0, 4):
            with pytest.raises(ValueError):
                paint(g, [0, 0], [0, 0], [(0, c)])
