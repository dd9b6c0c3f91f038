"""End-to-end acceptance gate.

Every test below checks one release criterion at its stated tolerance and
prints a single ``ACCEPTANCE <k> (<name>): PASS/FAIL in <t>s`` line, so the
suite output doubles as the sign-off report.  A test fails when its check
fails or when it blows its wall-clock budget.
"""

import itertools
import random
import statistics
import time

import helpers
from probe_chroma.graphs import (
    build_graph,
    cycle_graph,
    find_induced_subgraph,
    pattern_graph,
    validate_probe_instance,
)
from probe_chroma.generators import (
    X3CInstance,
    fixtures_counterexamples,
    gen_precolext_reduction,
    gen_probe_instance,
    gen_x3c_reduction,
)
from probe_chroma.oracles import oracle_is_probe_hfree, oracle_k_colourable
from probe_chroma.propagation import Conflict
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

_P5 = pattern_graph("p5")


def _run(capsys, num, name, budget, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        dt = time.perf_counter() - t0
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} ({name}): FAIL in {dt:.1f}s"
                  f" (budget {budget}s)")
        raise
    dt = time.perf_counter() - t0
    verdict = "PASS" if dt < budget else "FAIL [overtime]"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} ({name}): {verdict} in {dt:.1f}s"
              f" (budget {budget}s)")
    assert dt < budget, f"runtime {dt:.1f}s exceeded the {budget}s budget"


def _check_against(inst, verdict, colourable):
    if colourable:
        assert verdict.status == COLOURABLE
        assert verify_colouring(inst.graph, verdict.colouring) is None
    else:
        assert verdict.status == NOT_COLOURABLE
        assert verdict.colouring is None


def test_1_small_graph_partitions(capsys):
    """Exhaustive n <= 7: every certified probe partition is answered
    exactly, with a verifying certificate."""

    def body():
        checked = 0
        for g in helpers.atlas_connected():
            colourable = oracle_k_colourable(g, 3) is not None
            p5free = find_induced_subgraph(g, _P5) is None
            allv = frozenset(range(g.n))
            for nset in helpers.independent_sets(g):
                # a P5-free graph is certified for any N by the empty fill
                if not p5free and oracle_is_probe_hfree(g, _P5, nset) is None:
                    continue
                inst = validate_probe_instance(g, allv - nset, nset)
                verdict = solve_3col(inst)
                assert verdict.status != NOT_PROBE_P5_FREE
                _check_against(inst, verdict, colourable)
                checked += 1
        assert checked > 10_000

    _run(capsys, 1, "small-graph-partitions", 900, body)


def test_2_generated_instance_sweep(capsys):
    """10,000 generated instances across all families: status matches the
    brute-force oracle, no spurious promise-violation verdicts."""

    def body():
        families = (None, "path-split", "pentagon", "split-pure", "union",
                    "trianglefree")
        densities = (0.15, 0.3, 0.5, 0.7)
        for i in range(10_000):
            inst = gen_probe_instance(
                6 + i % 19,
                densities[(i // 6) % 4],
                ("acc2", i),
                family=families[i % 6],
            )
            verdict = solve_3col(inst)
            assert verdict.status != NOT_PROBE_P5_FREE, inst.meta
            colourable = oracle_k_colourable(inst.graph, 3) is not None
            _check_against(inst, verdict, colourable)

    _run(capsys, 2, "generated-instance-sweep", 900, body)


def test_3_recogniser_fixtures(capsys):
    """Catalogue of hand-built graphs: the recogniser refuses exactly the
    non-members and certifies the members."""

    def body():
        fixtures = fixtures_counterexamples()
        assert len(fixtures) >= 11
        for fx in fixtures:
            nset = frozenset(fx.partition[1]) if fx.partition else None
            cert = oracle_is_probe_hfree(
                fx.graph, pattern_graph(fx.pattern), nset)
            assert (cert is not None) == fx.probe_free, fx.name
            if cert is not None:
                assert cert.verify(), fx.name

    _run(capsys, 3, "recogniser-fixtures", 60, body)


def test_4_propagation_oracle(capsys):
    """1,000 random proper partial colourings on n <= 10: conflicts imply
    non-extendability, forced colours hold in every extension, and the
    fixpoint is idempotent and order-independent."""

    def body():
        rng = random.Random("acc4")
        perm_rng = random.Random("acc4-relabel")  # rng draws the same graphs
        for _ in range(1000):
            n = rng.randint(1, 10)
            g = helpers.random_graph(n, rng.random(), rng)
            colours = [0] * n
            for v in rng.sample(range(n), rng.randint(0, n)):
                free = {1, 2, 3} - {colours[u] for u in g.adj[v]}
                if free:
                    colours[v] = rng.choice(sorted(free))
            start = tuple(colours)
            out = helpers.propagate(g, start)
            if isinstance(out, Conflict):
                assert not list(helpers.brute_extensions(g, start, 3))
            else:
                forced = [v for v in range(n)
                          if start[v] == 0 and out[v] != 0]
                for ext in helpers.brute_extensions(g, start, 3):
                    for v in forced:
                        assert ext[v] == out[v]
                assert helpers.propagate(g, out) == out
            for _ in range(3):
                perm = helpers.shuffled_permutation(n, perm_rng)
                rerun = helpers.propagate(*helpers.relabel(g, start, perm))
                if isinstance(out, Conflict):
                    assert isinstance(rerun, Conflict)
                else:
                    assert not isinstance(rerun, Conflict)
                    assert helpers.relabel_back(rerun, perm) == out

    _run(capsys, 4, "propagation-oracle", 300, body)


def test_5_hardness_reductions(capsys):
    """Exact 3-cover and precolouring-extension gadgets agree with their
    source problems on 200 random inputs each."""

    def body():
        rng = random.Random("acc5")
        universe = tuple(range(6))
        triples = list(itertools.combinations(universe, 3))
        for _ in range(200):
            coll = tuple(sorted(rng.sample(triples, rng.randint(1, 8))))
            inst, s = gen_x3c_reduction(X3CInstance(universe, coll))
            want = helpers.exact_cover_exists(universe, coll)
            assert (oracle_k_colourable(inst.graph, s) is not None) == want

        for _ in range(200):
            na = rng.randint(3, 9)
            nb = rng.randint(1, 12 - na)
            p = rng.random()
            edges = [(a, na + b) for a in range(na) for b in range(nb)
                     if rng.random() < p]
            bip = build_graph(na + nb, edges)
            sides = (tuple(range(na)), tuple(range(na, na + nb)))
            marked = rng.sample(range(na), 3)
            gadget = gen_precolext_reduction(bip, sides, *marked)
            partial = [0] * (na + nb)
            for hue, v in enumerate(marked, start=1):
                partial[v] = hue
            want = helpers.brute_extendable(bip, tuple(partial), 3)
            got = oracle_k_colourable(gadget.graph, 3) is not None
            assert got == want

    _run(capsys, 5, "hardness-reductions", 600, body)


def test_6_restricted_solvers(capsys):
    """The sparse-probe solver matches the oracle on 500 certified inputs;
    ``solve_3col`` 3-colours 500 generated triangle-free inputs, every
    colouring verified, without a single refusal."""

    def body():
        for i in range(500):
            s = i % 3
            inst = gen_probe_instance(
                6 + i % 7, 0.2 + 0.1 * (i % 5), ("acc6", i),
                pattern=f"p3+{s}p1")
            verdict = solve_3col_p3sp1(inst, s)
            assert verdict.status != NOT_PROBE_P5_FREE, inst.meta
            colourable = oracle_k_colourable(inst.graph, 3) is not None
            _check_against(inst, verdict, colourable)

        for i in range(500):
            inst = gen_probe_instance(
                8 + i % 33, 0.3 + 0.1 * (i % 4), ("acc6t", i),
                family="trianglefree")
            verdict = solve_3col(inst)
            assert verdict.status == COLOURABLE, verdict.diagnostic
            assert verify_colouring(inst.graph, verdict.colouring) is None

    _run(capsys, 6, "restricted-solvers", 600, body)


def test_7_multi_p2_screen(capsys):
    """1,000 certified sparse-matching instances: the deleted graph itself
    stays free of the one-larger induced matching."""

    def body():
        for i in range(1000):
            s = 1 + i % 2
            inst = gen_probe_instance(
                4 + i % 9, 0.2 + 0.15 * (i % 4), ("acc7", i),
                pattern=f"p2+{s}p1")
            assert is_multi_p2_free(inst.graph, s)

    _run(capsys, 7, "multi-p2-screen", 300, body)


def test_8_scaling_sweep(capsys):
    """Doubling n from 1000 to 8000 keeps the median solve time within a
    factor 10 per step and every component under the deduction-call cap."""

    def body():
        families = ("path-split", "pentagon", "split-pure", "union")
        medians = []
        for n in (1000, 2000, 4000, 8000):
            times = []
            for seed in range(10):
                inst = gen_probe_instance(
                    n, 0.35, ("acc8", seed), family=families[seed % 4])
                t0 = time.perf_counter()
                verdict = solve_3col(inst)
                times.append(time.perf_counter() - t0)
                assert verdict.status == COLOURABLE
                assert verify_colouring(inst.graph, verdict.colouring) is None
                calls = verdict.stats.component_two_sat_calls
                assert max(calls, default=0) <= helpers.COMPONENT_TWO_SAT_BUDGET
            medians.append(statistics.median(times))
        for prev, cur in zip(medians, medians[1:]):
            # 1ms floor so sub-millisecond noise cannot fail the ratio
            assert cur <= 10 * max(prev, 0.001), medians

    _run(capsys, 8, "scaling-sweep", 1800, body)


def test_9_relabelling_stability(capsys):
    """1,000 (instance, permutation) pairs: the verdict status never
    depends on vertex labels."""

    def body():
        rng = random.Random("acc9")
        families = (None, "path-split", "pentagon", "split-pure", "union",
                    "trianglefree")
        pairs = 0
        for i in range(250):
            if i % 25 == 24:
                # promise violators: all-probe odd holes keep their refusal
                g = cycle_graph(7 + 2 * (i % 3))
                inst = validate_probe_instance(
                    g, frozenset(range(g.n)), frozenset())
            else:
                inst = gen_probe_instance(
                    6 + i % 11, 0.2 + 0.1 * (i % 5), ("acc9", i),
                    family=families[i % 6])
            base = solve_3col(inst).status
            for _ in range(4):
                perm = helpers.shuffled_permutation(inst.graph.n, rng)
                shuffled = helpers.permute_instance(inst, perm)
                assert solve_3col(shuffled).status == base
                pairs += 1
        assert pairs == 1000

    _run(capsys, 9, "relabelling-stability", 300, body)
