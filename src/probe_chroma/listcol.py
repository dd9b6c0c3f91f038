"""Completing a partial colouring when every open list has at most 2 colours.

The instance becomes 2-SAT over the tied vertices: those that share a list
colour with a listed neighbour or sit in a colour-equality coupling.  Each
gets one variable per allowed colour and an at-least-one clause; each edge
gets an at-most-one clause per shared colour, and each coupling chains its
vertices colour by colour.  Satisfiability is decided with Tarjan's
strongly connected components.

Every other listed vertex takes its least list colour without a variable.
The full formula, with variables for every listed vertex, gives the same
colouring: Tarjan visits roots in index order, and an untied vertex's
clause gadget is a separate piece of the implication graph whose first
literal finishes first, so that literal is read as true.  Leaving the
gadget out does not change the order of the other components.  By the
same argument a round in which no vertex is tied needs no formula at
all: every listed vertex takes its least colour, which is what the full
formula gives, and only an empty list makes the round fail.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ListSizeError
from .graphs import Graph
from .propagation import FREE

_TRUE = ("const", True)
_FALSE = ("const", False)


@dataclass(frozen=True)
class EqualityConstraint:
    """All ``vertices`` must agree colour-by-colour over ``colours``.

    Encoded as biconditional chains between consecutive vertices in
    ascending id order; by transitivity this equals the all-pairs coupling.
    """

    vertices: tuple
    colours: tuple


@dataclass(frozen=True)
class ListFormula:
    num_vars: int
    clauses: tuple  # pairs of DIMACS-style literals; units doubled
    var_of: dict  # (tied vertex, colour) -> 0-based variable index
    lists: dict  # every listed vertex -> ascending tuple of allowed colours
    unsat: bool  # an empty list or contradictory constant arose while building


def compute_lists(g: Graph, colours, masks, skip=frozenset()) -> dict:
    """Open colour lists of the uncoloured vertices outside ``skip``, read
    off their seen-colour ``masks``.

    Vertices in ``skip`` are treated as absent and must be uncoloured.  A
    list longer than 2 raises :class:`ListSizeError`: the caller's
    structural guarantees were violated.
    """
    if any(colours[v] for v in skip):
        raise ValueError("skipped vertices must be uncoloured")
    lists = {}
    for v, c in enumerate(colours):
        if c or v in skip:
            continue
        allowed = FREE[masks[v]]
        if len(allowed) > 2:
            raise ListSizeError(v, len(allowed))
        lists[v] = allowed
    return lists


def build_list_formula(g: Graph, colours, lists: dict,
                       equalities=()) -> ListFormula:
    """The 2-SAT formula of the open ``lists``, over the tied vertices only.

    ``lists`` is what :func:`compute_lists` gives for the colour list
    ``colours``.  A listed vertex is tied when it shares a list colour with
    a listed neighbour or sits in one of the ``equalities``; only tied
    vertices get variables and clauses, and ``lists`` still holds every
    listed vertex.  Edge clauses follow the edges in lexicographic
    ``(u, v)`` order.  An empty list anywhere makes the formula ``unsat``.
    """
    shared = sorted(_shared_colours(g, lists))
    tied = {v for u, w, _ in shared for v in (u, w)}
    tied.update(v for eq in equalities for v in eq.vertices if v in lists)
    var_of = {}
    for v in sorted(tied):
        for c in lists[v]:
            var_of[(v, c)] = len(var_of)

    clauses = []
    unsat = any(not row for row in lists.values())

    def lit(v, c):
        # constant when v is already coloured or c is off v's list
        if colours[v]:
            return _TRUE if colours[v] == c else _FALSE
        if (v, c) not in var_of:
            return _FALSE
        return ("var", var_of[(v, c)] + 1)

    for v in sorted(tied):
        row = lists[v]
        if len(row) == 1:
            x = var_of[(v, row[0])] + 1
            clauses.append((x, x))
        elif row:
            clauses.append((var_of[(v, row[0])] + 1, var_of[(v, row[1])] + 1))

    for u, v, common in shared:
        for c in common:
            clauses.append((-(var_of[(u, c)] + 1), -(var_of[(v, c)] + 1)))

    for eq in equalities:
        verts = tuple(sorted(eq.vertices))
        for a, b in zip(verts, verts[1:]):
            for c in eq.colours:
                la, lb = lit(a, c), lit(b, c)
                unsat |= _couple(clauses, la, lb)
    return ListFormula(len(var_of), tuple(clauses), var_of, lists, unsat)


def _shared_colours(g: Graph, lists: dict) -> list:
    """``(u, v, common colours)`` of each listed edge u < v whose ends share
    a list colour, unordered."""
    shared = []
    for u, row in lists.items():
        for v in g.adj[u]:
            if v > u and v in lists:
                common = [c for c in row if c in lists[v]]
                if common:
                    shared.append((u, v, common))
    return shared


def _couple(clauses, la, lb) -> bool:
    """Append clauses for ``la <-> lb``; True means contradiction."""
    if la[0] == "const" and lb[0] == "const":
        return la[1] != lb[1]
    if la[0] == "const":
        la, lb = lb, la
    if lb[0] == "const":
        x = la[1]
        clauses.append((x, x) if lb[1] else (-x, -x))
        return False
    x, y = la[1], lb[1]
    clauses.append((-x, y))
    clauses.append((x, -y))
    return False


def tarjan_scc(adj) -> list:
    """Component id per node; ids increase in reverse topological order."""
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack = []
    counter = 0
    n_comps = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            row = adj[v]
            for j in range(pi, len(row)):
                w = row[j]
                if index[w] == -1:
                    work[-1] = (v, j + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = n_comps
                    if w == v:
                        break
                n_comps += 1
    return comp


def solve_two_sat(num_vars: int, clauses):
    """Satisfying assignment as a bool list, or None.

    Literals are DIMACS-style: ``+(i+1)`` for variable ``i``, negative for
    its negation.
    """
    adj = [[] for _ in range(2 * num_vars)]

    def node(l):
        return 2 * (abs(l) - 1) + (0 if l > 0 else 1)

    for a, b in clauses:
        adj[node(-a)].append(node(b))
        adj[node(-b)].append(node(a))
    comp = tarjan_scc(adj)
    out = []
    for i in range(num_vars):
        if comp[2 * i] == comp[2 * i + 1]:
            return None
        out.append(comp[2 * i] < comp[2 * i + 1])
    return out


def extend_by_2list(g: Graph, colours: list, masks, equalities=(),
                    skip=frozenset()):
    """Complete the colour list ``colours`` in place on all of ``g`` but
    ``skip`` (left uncoloured) and return it, or report impossibility with
    None and leave it as it was.

    The open lists are read off the seen-colour ``masks``, which must be
    ``seen_masks(g, colours)``; they are not updated.  Without
    ``equalities`` and with no listed edge whose ends share a list colour,
    no vertex is tied and no formula is built: every listed vertex takes
    its least list colour.  Otherwise a tied vertex takes the first colour
    of its list whose variable is true, so a tie between two true variables
    resolves to the smaller colour, and an untied vertex takes its least
    list colour, as the full formula would give it (see the module
    docstring).
    """
    lists = compute_lists(g, colours, masks, skip)
    if not equalities and not _shared_colours(g, lists):
        if not all(lists.values()):
            return None
        for v, row in lists.items():
            colours[v] = row[0]
        return colours
    formula = build_list_formula(g, colours, lists, equalities)
    if formula.unsat:
        return None
    assignment = solve_two_sat(formula.num_vars, formula.clauses)
    if assignment is None:
        return None
    var_of = formula.var_of
    for v, row in lists.items():
        if (v, row[0]) in var_of:
            colours[v] = next(c for c in row if assignment[var_of[(v, c)]])
        else:
            colours[v] = row[0]
    return colours
