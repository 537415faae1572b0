"""Topology automorphisms and verified protocol symmetry.

The paper's substrates are highly symmetric — cliques carry the full
symmetric group, rings a cyclic (or dihedral) group, tori a product of
shifts — and the Theorem 3.1 states-graph inherits every one of those
symmetries: if ``pi`` is an automorphism of the topology that fixes the
input vector and commutes with every reaction, then ``pi`` maps runs to
runs, stable labelings to stable labelings, and r-fair schedules to r-fair
schedules.  Exhaustive analyses may therefore explore one state per
*orbit* instead of one state per labeling, which is what
``ExplorationGraph(symmetry=...)`` does.

This module provides the group machinery behind that quotient:

* **Automorphism discovery** — generator proposals for the standard
  families (cliques, rings, bidirectional rings, torus/grid substrates),
  each *checked* against the topology via :func:`edge_permutation`, with a
  brute-force backtracking search as the fallback for small irregular
  graphs.  Discovery is best-effort: any verified subgroup yields a sound
  (if smaller) quotient.
* **Protocol verification** — :func:`protocol_symmetry_group` keeps only
  the automorphisms that fix the input vector and provably commute with
  the reactions: for each candidate generator it enumerates every
  combination of incoming labels over the declared space and checks that
  node ``pi(i)`` reacts to the permuted neighborhood exactly as node ``i``
  does.  Verified generators compose, so only a generating set is checked.
  Anything unverifiable (stateful protocols, non-enumerable spaces, budget
  overruns) yields ``None`` and callers fall back to the unquotiented
  search; :func:`symmetry_decline_reason` says which of them applied.
* **Canonical forms** — :class:`SymmetryGroup.canonicalizer` builds a
  per-consumer :class:`StateCanonicalizer` that maps a ``(labeling,
  [outputs,] countdown)`` state to the lexicographically least element of
  its orbit, returning a group element achieving it and the orbit size —
  the data witness lifting and reduction-factor accounting need.  Groups
  that are full products of symmetric groups on their orbits (cliques,
  and what input-splitting leaves of them) are canonicalized by partition
  refinement over twin classes without touching the elements; every
  other group by a candidates-pruning scan over its materialized
  elements, vectorized when numpy is present.

Permutations are tuples ``p`` with ``p[i]`` the image of node ``i``;
``compose(p, q)`` is ``p after q``.  A group element acts on a state by
relabeling nodes: ``(g . c)[p[i]] = c[i]`` on countdowns/outputs and
``(g . l)[ep[e]] = l[e]`` on edge labelings, where ``ep`` is the induced
edge permutation.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import product
from math import factorial, prod
from operator import itemgetter
from typing import Any
from weakref import WeakKeyDictionary

try:  # pragma: no cover - exercised via both paths in CI
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

from repro.exceptions import ValidationError
from repro.graphs.topology import Topology

#: Closure cap: groups past this many elements are not materialized.
#: Covers S_7 x 2.  The refinement canonicalizer never reads the elements,
#: but the group is still built element by element (closure, edge
#: permutations, the index that names the minimizing element), so the
#: cap bounds that build; lifting it needs a stabilizer chain.  The scan
#: route's per-state cost is linear in the order.
DEFAULT_MAX_GROUP_ORDER = 10_080

#: Per-generator equivariance-verification budget: total incoming-label
#: combinations enumerated across all nodes.
DEFAULT_VERIFY_BUDGET = 1 << 16

#: Brute-force automorphism search is attempted up to this many nodes when
#: no family proposal matches.
BRUTE_FORCE_MAX_N = 7


# -- permutation primitives --------------------------------------------------


def identity_permutation(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """``p`` after ``q``: ``compose(p, q)[i] == p[q[i]]``."""
    return tuple([p[j] for j in q])


def invert(p: Sequence[int]) -> tuple[int, ...]:
    inverse = [0] * len(p)
    for i, j in enumerate(p):
        inverse[j] = i
    return tuple(inverse)


def edge_permutation(
    topology: Topology, perm: Sequence[int]
) -> tuple[int, ...] | None:
    """The induced permutation of canonical edge positions, or ``None``.

    ``None`` means ``perm`` is *not* an automorphism: some edge's image is
    not an edge.  Injectivity is automatic (``perm`` is a bijection).
    """
    index = topology.edge_positions
    try:
        return tuple([index[perm[u], perm[v]] for u, v in topology.edges])
    except KeyError:
        return None


def close_generators(
    generators: Iterable[Sequence[int]],
    n: int,
    cap: int = DEFAULT_MAX_GROUP_ORDER,
) -> tuple[tuple[int, ...], ...]:
    """The group generated by ``generators``, identity first, BFS order.

    Deterministic: elements are discovered breadth-first in generator
    order, so equal inputs give equal element orderings (state canonical
    forms depend on it).  Raises :class:`ValidationError` past ``cap``.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if sorted(g) != list(range(n)):
            raise ValidationError(f"{g!r} is not a permutation of 0..{n - 1}")
    ident = identity_permutation(n)
    elements = [ident]
    seen = {ident}
    frontier = 0
    while frontier < len(elements):
        base = elements[frontier]
        frontier += 1
        for g in gens:
            image = compose(g, base)
            if image not in seen:
                if len(elements) >= cap:
                    raise ValidationError(
                        f"symmetry group exceeds the order cap of {cap}"
                    )
                seen.add(image)
                elements.append(image)
    return tuple(elements)


# -- automorphism discovery --------------------------------------------------


def _rotation(n: int, shift: int) -> tuple[int, ...]:
    return tuple((i + shift) % n for i in range(n))


def _reflection(n: int) -> tuple[int, ...]:
    return tuple((n - i) % n for i in range(n))


def _transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def _grid_proposals(n: int):
    """Torus/grid shift and transpose candidates for every factorization."""
    for rows in range(2, n):
        if n % rows:
            continue
        cols = n // rows
        yield tuple(
            ((i // cols + 1) % rows) * cols + i % cols for i in range(n)
        )
        yield tuple(
            (i // cols) * cols + (i % cols + 1) % cols for i in range(n)
        )
        if rows == cols:
            yield tuple((i % cols) * cols + i // cols for i in range(n))


def _all_automorphisms(topology: Topology) -> list[tuple[int, ...]]:
    """Backtracking search for every automorphism of a small topology."""
    n = topology.n
    in_deg = [topology.in_degree(i) for i in range(n)]
    out_deg = [topology.out_degree(i) for i in range(n)]
    found: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> None:
        if i == n:
            perm = tuple(image)
            if edge_permutation(topology, perm) is not None:
                found.append(perm)
            return
        for j in range(n):
            if used[j] or in_deg[j] != in_deg[i] or out_deg[j] != out_deg[i]:
                continue
            ok = True
            for u in range(i):
                if topology.has_edge(u, i) != topology.has_edge(image[u], j):
                    ok = False
                    break
                if topology.has_edge(i, u) != topology.has_edge(j, image[u]):
                    ok = False
                    break
            if not ok:
                continue
            image[i] = j
            used[j] = True
            extend(i + 1)
            used[j] = False
        image[i] = -1

    extend(0)
    return found


def automorphism_generators(topology: Topology) -> tuple[tuple[int, ...], ...]:
    """A checked generator list for (a subgroup of) ``Aut(topology)``.

    Family proposals — symmetric-group generators for cliques, rotations
    and reflections for rings, shifts/transposes for torus factorizations,
    pairwise transpositions on small graphs — are filtered through
    :func:`edge_permutation`, so everything returned is a genuine
    automorphism.  When nothing matches and the graph is small, falls back
    to the exhaustive backtracking search.  Best-effort: a subgroup is
    always sound for quotienting, merely less effective.
    """
    n = topology.n
    if n < 2:
        return ()
    ident = identity_permutation(n)
    proposals: list[tuple[int, ...]] = []
    if topology.m == n * (n - 1):  # clique: propose S_n generators
        proposals.append(_transposition(n, 0, 1))
        proposals.append(_rotation(n, 1))
    else:
        proposals.append(_rotation(n, 1))
        proposals.append(_reflection(n))
        proposals.extend(_grid_proposals(n))
        if n <= 8:
            for a in range(n):
                for b in range(a + 1, n):
                    proposals.append(_transposition(n, a, b))
    verified: list[tuple[int, ...]] = []
    for perm in proposals:
        if perm == ident or perm in verified:
            continue
        if edge_permutation(topology, perm) is not None:
            verified.append(perm)
    if not verified and n <= BRUTE_FORCE_MAX_N:
        verified = [p for p in _all_automorphisms(topology) if p != ident]
    return tuple(verified)


# -- the group object --------------------------------------------------------


class SymmetryGroup:
    """A group of topology automorphisms acting on states.

    ``elements`` must be closed under composition and contain the identity
    first (what :func:`close_generators` produces).  Elements are addressed
    by index; :meth:`compose`, :meth:`inverse` and the ``apply_*`` helpers
    do the index algebra that witness lifting needs.

    ``label_universe``, when set, is the declared label space as a frozen
    set: consumers use it to refuse quotienting runs whose reactions emit
    labels the equivariance verification never covered.
    """

    def __init__(
        self,
        topology: Topology,
        elements: Sequence[Sequence[int]],
        label_universe: frozenset | None = None,
    ):
        n = topology.n
        node_perms = tuple(tuple(p) for p in elements)
        if not node_perms or node_perms[0] != identity_permutation(n):
            raise ValidationError(
                "a symmetry group lists the identity permutation first"
            )
        edge_perms = []
        for perm in node_perms:
            eperm = edge_permutation(topology, perm)
            if eperm is None:
                raise ValidationError(
                    f"{perm!r} is not an automorphism of {topology.name}"
                )
            edge_perms.append(eperm)
        self.topology = topology
        self.node_perms = node_perms
        self.edge_perms = tuple(edge_perms)
        self.node_inverses = tuple(invert(p) for p in node_perms)
        self.label_universe = label_universe
        self._index = {p: g for g, p in enumerate(node_perms)}
        self._compose_cache: dict[tuple[int, int], int] = {}
        self._inverse_index = tuple(
            self._require(inv) for inv in self.node_inverses
        )
        # The induced edge permutation of an inverse is the inverse's.
        self.edge_inverses = tuple(self.edge_perms[h] for h in self._inverse_index)

    def _require(self, perm: tuple[int, ...]) -> int:
        g = self._index.get(perm)
        if g is None:
            raise ValidationError(
                "symmetry group is not closed under composition"
            )
        return g

    @property
    def order(self) -> int:
        return len(self.node_perms)

    @property
    def n(self) -> int:
        return self.topology.n

    def compose(self, g: int, h: int) -> int:
        """Index of ``g`` after ``h``."""
        if g == 0:
            return h
        if h == 0:
            return g
        key = (g, h)
        cached = self._compose_cache.get(key)
        if cached is None:
            cached = self._require(
                compose(self.node_perms[g], self.node_perms[h])
            )
            self._compose_cache[key] = cached
        return cached

    def inverse(self, g: int) -> int:
        return self._inverse_index[g]

    def element_order(self, g: int) -> int:
        power, count = g, 1
        while power != 0:
            power = self.compose(g, power)
            count += 1
        return count

    def apply_nodes(self, g: int, nodes: Iterable[int]) -> frozenset[int]:
        perm = self.node_perms[g]
        return frozenset(perm[i] for i in nodes)

    def apply_labeling(self, g: int, values: Sequence[Any]) -> tuple:
        """``(g . l)[e] = l[ep^-1[e]]`` over canonical edge positions."""
        epinv = self.edge_inverses[g]
        return tuple(values[epinv[e]] for e in range(len(epinv)))

    def apply_per_node(self, g: int, vector: Sequence[Any]) -> tuple:
        """Per-node vectors (countdowns, outputs): ``(g . c)[i] = c[p^-1[i]]``."""
        pinv = self.node_inverses[g]
        return tuple(vector[pinv[i]] for i in range(len(pinv)))

    def canonicalizer(self, track_outputs: bool) -> "StateCanonicalizer":
        return StateCanonicalizer(self, track_outputs)

    def __repr__(self) -> str:
        return (
            f"<SymmetryGroup order={self.order}"
            f" over {self.topology.name}>"
        )


class StateCanonicalizer:
    """Maps states to the lexicographically least element of their orbit.

    States are compared as integer vectors ``countdown + labeling codes
    [+ output codes]`` — label and output objects are assigned small codes
    on first sight, so arbitrary (even unorderable) label types get a
    consistent total order for the duration of one exploration.

    Two routes find the minimum, picked once from the group's shape:

    * **refine** — when the group is the full product of symmetric groups
      on its orbits (a Young subgroup: ``S_n`` on cliques, ``S_a x S_b``
      once inputs split the nodes, ``S_{n-1}`` on star leaves), the
      minimum is found by partition refinement without touching the group
      elements (:meth:`_canonical_refine`).
    * **scan** — any other group (rings, tori, explicitly generated
      subgroups) keeps the set of elements still tied for the minimum and
      prunes it column by column; with numpy, each column is one gather +
      compare over the surviving candidates.

    :meth:`canonical` returns ``(g, ties)``: ``g`` achieves the minimum
    (``canonical state = g . state``) and ``ties`` counts the elements that
    do — the stabilizer of the state, so ``group.order // ties`` is the
    orbit size.  Both routes reach the same canonical state and the same
    ``ties``; when several elements tie they may return different ones.
    """

    def __init__(self, group: SymmetryGroup, track_outputs: bool):
        self.group = group
        self.track_outputs = track_outputs
        n = group.n
        m = len(group.edge_perms[0])
        self._n = n
        self._m = m
        self._label_codes: dict[Any, int] = {}
        self._output_codes: dict[Any, int] = {}
        self._orbits = _young_orbits(group)
        if self._orbits is not None:
            self._prepare_refine()
        else:
            self._prepare_scan()

    @property
    def route(self) -> str:
        """``"refine"`` or ``"scan"``: how :meth:`canonical` finds minima."""
        return "scan" if self._orbits is None else "refine"

    def _prepare_scan(self) -> None:
        """Column source maps: ``canonical_vec[c] = base_vec[rows[g][c]]``."""
        group = self.group
        n, m = self._n, self._m
        rows = []
        for g in range(group.order):
            pinv = group.node_inverses[g]
            epinv = group.edge_inverses[g]
            row = list(pinv)
            row.extend(n + e for e in epinv)
            if self.track_outputs:
                row.extend(n + m + i for i in pinv)
            rows.append(tuple(row))
        self._rows = tuple(rows)
        self._matrix = None
        if np is not None:
            self._matrix = np.asarray(rows, dtype=np.int64)
            self._all = np.arange(group.order)

    def _encode(self, values, outputs, countdown) -> tuple[int, ...]:
        label_codes = self._label_codes
        base = list(countdown)
        for value in values:
            code = label_codes.get(value)
            if code is None:
                code = len(label_codes)
                label_codes[value] = code
            base.append(code)
        if self.track_outputs:
            output_codes = self._output_codes
            for value in outputs:
                code = output_codes.get(value)
                if code is None:
                    code = len(output_codes)
                    output_codes[value] = code
                base.append(code)
        return tuple(base)

    def canonical(self, values, outputs, countdown) -> tuple[int, int]:
        """The minimizing group element and the number of ties."""
        base = self._encode(values, outputs, countdown)
        if self._orbits is not None:
            return self._canonical_refine(base)
        if self._matrix is not None:
            return self._canonical_np(base)
        return self._canonical_py(base)

    def _canonical_np(self, base: tuple[int, ...]) -> tuple[int, int]:
        arr = np.asarray(base, dtype=np.int64)
        matrix = self._matrix
        candidates = self._all
        for column in range(len(base)):
            values = arr[matrix[candidates, column]]
            best = values.min()
            candidates = candidates[values == best]
            if candidates.size == 1:
                return int(candidates[0]), 1
        return int(candidates[0]), int(candidates.size)

    def _canonical_py(self, base: tuple[int, ...]) -> tuple[int, int]:
        best_vec = None
        best_g = 0
        ties = 0
        for g, row in enumerate(self._rows):
            vec = tuple(base[c] for c in row)
            if best_vec is None or vec < best_vec:
                best_vec, best_g, ties = vec, g, 1
            elif vec == best_vec:
                ties += 1
        return best_g, ties

    # -- the refinement route ------------------------------------------------

    def _prepare_refine(self) -> None:
        """Per-group tables for :meth:`_canonical_refine`.

        ``_slot`` maps a node pair to the base-vector index of its edge's
        label (``-1`` off the edge set).  ``_columns`` lists the vector's
        comparison columns after the countdown block in order: one
        ``(u, v)`` position pair per edge in the topology's own edge order,
        then ``(i, i)`` for the output of position ``i`` (no self-loops, so
        the two kinds cannot collide).  ``_twin_tests`` holds, for every
        node pair of one orbit, two getters over the base vector that agree
        exactly when swapping the pair leaves the state unchanged.
        """
        group = self.group
        topology = group.topology
        n, m = self._n, self._m
        index = topology.edge_positions
        slot = [-1] * (n * n)
        for (u, v), e in index.items():
            slot[u * n + v] = n + e
        self._slot = slot
        columns = list(topology.edges)
        if self.track_outputs:
            columns.extend((i, i) for i in range(n))
        self._columns = tuple(columns)
        twin_tests: dict[tuple[int, int], tuple | None] = {}
        for orbit in self._orbits:
            for k, a in enumerate(orbit):
                for b in orbit[k + 1 :]:
                    swap = _transposition(n, a, b)
                    eperm = edge_permutation(topology, swap)
                    left = [n + e for e, f in enumerate(eperm) if e < f]
                    right = [n + eperm[e] for e, f in enumerate(eperm) if e < f]
                    if self.track_outputs:
                        left.append(n + m + a)
                        right.append(n + m + b)
                    twin_tests[a, b] = (
                        (itemgetter(*left), itemgetter(*right)) if left else None
                    )
        self._twin_tests = twin_tests

    def _refine_columns(self, base, members, cell_at, branches):
        """Resolve the comparison columns; returns the tied branches."""
        n = self._n
        # Class-level label table: twins make table[c][d] the label of any
        # edge from a member of c to a member of d (distinct members when
        # c == d); ``None`` where no such edge exists.
        slot = self._slot
        reps = [nodes[0] for nodes in members]
        table = []
        for c, nodes in enumerate(members):
            offset = nodes[0] * n
            row = [
                base[slot[offset + d]] if slot[offset + d] >= 0 else None for d in reps
            ]
            i = slot[offset + nodes[1]] if len(nodes) > 1 else -1
            row[c] = base[i] if i >= 0 else None
            table.append(row)
        outputs = [base[n + self._m + r] for r in reps] if self.track_outputs else ()
        # Classes whose edges out of (into) them carry one label whatever
        # the other end: a column from (to) them depends on nothing open.
        flat_row = [_uniform(row) for row in table]
        flat_col = [_uniform(col) for col in zip(*table)]

        for u, v in self._columns:
            if len(branches) == 1:
                decided = branches[0][0]
                cu, cv = decided[u], decided[v]
                if cu >= 0 and cv >= 0:
                    continue
                if u != v and (
                    (cu >= 0 and flat_row[cu]) or (cv >= 0 and flat_col[cv])
                ):
                    continue
            options = []
            for decided, remaining in branches:
                options.extend(
                    _resolve(u, v, decided, remaining, cell_at, table, outputs)
                )
            if len(options) == 1:
                branches = [options[0][1:]]
                if -1 not in branches[0][0]:
                    break  # one fully decided branch: nothing left to compare
            else:
                best = min(option[0] for option in options)
                branches = [option[1:] for option in options if option[0] == best]
        return branches

    def _canonical_refine(self, base: tuple[int, ...]) -> tuple[int, int]:
        """Lex-min by individualization-refinement over a Young subgroup.

        The countdown block fixes an ordered partition: within each orbit
        the sorted countdown values go to increasing positions, so every
        position gets a *cell* — the nodes of its orbit carrying its
        countdown value.  Nodes of a cell whose transposition fixes the
        state (same output, same labels to and from every third node, the
        same label both ways between them) are *twins*; twin classes are
        interchangeable, so the search assigns classes to positions, not
        nodes, and every class-level solution stands for
        ``prod(|class|!)`` group elements.

        Columns are then resolved in vector order.  A column decides the
        classes of its still-open positions only when its value depends on
        them, keeping just the choices tied for the minimum; positions a
        column cannot tell apart stay open until one can.
        """
        n = self._n
        members: list[list[int]] = []
        cell_at: list[tuple] = [()] * n  # position -> (positions, classes)
        # Positions whose cell is one twin class are decided from the start.
        decided = [-1] * n
        remaining: list[int] = []
        twin_tests = self._twin_tests
        for orbit in self._orbits:
            ranked = sorted(orbit, key=base.__getitem__)
            start, size = 0, len(ranked)
            while start < size:
                value = base[ranked[start]]
                end = start + 1
                while end < size and base[ranked[end]] == value:
                    end += 1
                first = len(members)
                for node in ranked[start:end]:
                    for c in range(first, len(members)):
                        test = twin_tests[members[c][0], node]
                        if test is None or test[0](base) == test[1](base):
                            members[c].append(node)
                            break
                    else:
                        members.append([node])
                classes = tuple(range(first, len(members)))
                positions = orbit[start:end]
                cell = (positions, classes)
                for position in positions:
                    cell_at[position] = cell
                if len(classes) == 1:
                    for position in positions:
                        decided[position] = first
                    remaining.append(0)
                else:
                    remaining.extend(len(members[c]) for c in classes)
                start = end

        branches = [(decided, remaining)]
        if -1 in decided:
            branches = self._refine_columns(base, members, cell_at, branches)

        # Every position ends decided: two open positions of one cell with
        # different classes a, b would tie both ways round, so swapping a
        # and b would fix the state and make them twins.  Each branch is
        # one class-level minimizer standing for prod(|class|!) elements.
        ties = len(branches)
        for nodes in members:
            ties *= factorial(len(nodes))
        decided = branches[0][0]
        taken = [0] * len(members)
        perm = [0] * n
        for position, c in enumerate(decided):
            perm[members[c][taken[c]]] = position
            taken[c] += 1
        return self.group._index[tuple(perm)], ties


def _uniform(values) -> bool:
    """Whether the non-``None`` entries all hold one value."""
    return len({value for value in values if value is not None}) <= 1


def _young_orbits(group: SymmetryGroup) -> tuple[tuple[int, ...], ...] | None:
    """The orbits of ``group`` if it is the full product of the symmetric
    groups on them (a Young subgroup), else ``None``.

    A group always lies inside the product of the symmetric groups on its
    orbits, so equal orders mean equal groups.
    """
    seen: set[int] = set()
    orbits = []
    for images in zip(*group.node_perms):
        orbit = tuple(sorted(set(images)))
        if orbit[0] not in seen:
            seen.update(orbit)
            orbits.append(orbit)
    if prod(factorial(len(orbit)) for orbit in orbits) != group.order:
        return None
    return tuple(orbits)


def _decide(decided, remaining, assignments, cell_at):
    """A branch copy with ``(position, class)`` assignments made, plus the
    forced ones: a cell left with one class fills its open positions."""
    decided = decided.copy()
    remaining = remaining.copy()
    for position, c in assignments:
        if decided[position] >= 0:
            continue  # already filled with c when its cell ran down
        decided[position] = c
        remaining[c] -= 1
        positions, classes = cell_at[position]
        live = [k for k in classes if remaining[k]]
        if len(live) == 1:
            (last,) = live
            for other in positions:
                if decided[other] < 0:
                    decided[other] = last
            remaining[last] = 0
    return decided, remaining


def _resolve(u, v, decided, remaining, cell_at, table, outputs):
    """One branch's options at column ``(u, v)``: ``(value, decided,
    remaining)`` triples, already cut to the branch's own minimum.

    Open positions are decided only when the column's value depends on
    them; a value that depends on one end alone decides that end only.
    """
    cu, cv = decided[u], decided[v]
    if u == v:  # the output of position u
        if cu >= 0:
            return [(outputs[cu], decided, remaining)]
        options = [(outputs[c], ((u, c),)) for c in cell_at[u][1] if remaining[c]]
    elif cu >= 0 and cv >= 0:
        return [(table[cu][cv], decided, remaining)]
    elif cu >= 0:
        row = table[cu]
        options = [(row[d], ((v, d),)) for d in cell_at[v][1] if remaining[d]]
    elif cv >= 0:
        options = [(table[c][cv], ((u, c),)) for c in cell_at[u][1] if remaining[c]]
    else:
        options = []
        by_u: dict[int, set] = {}
        by_v: dict[int, set] = {}
        for c in cell_at[u][1]:
            if not remaining[c]:
                continue
            row = table[c]
            for d in cell_at[v][1]:
                if remaining[d] > (c == d):
                    value = row[d]
                    options.append((value, ((u, c), (v, d))))
                    by_u.setdefault(c, set()).add(value)
                    by_v.setdefault(d, set()).add(value)
        if all(len(values) == 1 for values in by_u.values()):
            options = [(values.pop(), ((u, c),)) for c, values in by_u.items()]
        elif all(len(values) == 1 for values in by_v.values()):
            options = [(values.pop(), ((v, d),)) for d, values in by_v.items()]
    best = min(option[0] for option in options)
    if all(option[0] == best for option in options):
        return [(best, decided, remaining)]
    return [
        (best, *_decide(decided, remaining, assignments, cell_at))
        for value, assignments in options
        if value == best
    ]


# -- protocol-level verification ---------------------------------------------


def symmetry_group_from_generators(
    topology: Topology,
    generators: Iterable[Sequence[int]],
    cap: int = DEFAULT_MAX_GROUP_ORDER,
) -> SymmetryGroup:
    """Close explicit generators into a :class:`SymmetryGroup`.

    The generators are checked to be topology automorphisms, but **not**
    verified against any protocol's reactions — passing the result to an
    exploration asserts reaction equivariance on the caller's authority.
    """
    return SymmetryGroup(topology, close_generators(generators, topology.n, cap))


def _input_invariant(perm: Sequence[int], inputs: Sequence[Any]) -> bool:
    return all(inputs[perm[i]] == inputs[i] for i in range(len(perm)))


def _generating_set(
    elements: Sequence[tuple[int, ...]], n: int
) -> tuple[list[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """A small generating list for a closed element set (greedy), and the
    group it generates in :func:`close_generators` order."""
    ident = identity_permutation(n)
    closure: tuple[tuple[int, ...], ...] = (ident,)
    generated = {ident}
    generators: list[tuple[int, ...]] = []
    for perm in elements:
        if perm in generated:
            continue
        generators.append(perm)
        closure = close_generators(generators, n, cap=len(elements) + 1)
        generated = set(closure)
    return generators, closure


def _verify_generator(compiled, inputs, perm, eperm, space_values) -> bool:
    """Exhaustively check one automorphism's reaction equivariance.

    For every node ``i`` (image ``j = perm[i]``) and every combination of
    incoming labels over the declared space, node ``j`` applied to the
    permuted neighborhood must produce the permuted outgoing labels and
    the same output value.  Reactions are allowed to raise — but then both
    sides must raise.
    """
    m = compiled.m
    for i, j in enumerate(perm):
        adapter_i = compiled.adapter(i)
        adapter_j = compiled.adapter(j)
        in_pos = compiled.in_positions[i]
        out_pos = compiled.out_positions[i]
        values_i: list[Any] = [None] * m
        values_j: list[Any] = [None] * m
        scratch_i: list[Any] = [None] * m
        scratch_j: list[Any] = [None] * m
        for combo in product(space_values, repeat=len(in_pos)):
            for position, value in zip(in_pos, combo, strict=True):
                values_i[position] = value
                values_j[eperm[position]] = value
            try:
                y_i = adapter_i(values_i, scratch_i, inputs[i])
            except Exception:
                try:
                    adapter_j(values_j, scratch_j, inputs[j])
                except Exception:
                    continue  # both sides reject this neighborhood
                return False
            try:
                y_j = adapter_j(values_j, scratch_j, inputs[j])
            except Exception:
                return False
            if y_i != y_j:
                return False
            for position in out_pos:
                if scratch_i[position] != scratch_j[eperm[position]]:
                    return False
    return True


#: protocol -> {(inputs, caps): (SymmetryGroup | None, reason | None)}.
#: Weak on the protocol so cached groups die with it; repeated decide/delay
#: calls over one protocol verify equivariance once.
_SYMMETRY_CACHE: "WeakKeyDictionary[Any, dict]" = WeakKeyDictionary()


def protocol_symmetry_group(
    protocol,
    inputs: Sequence[Any],
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
    verify_budget: int = DEFAULT_VERIFY_BUDGET,
) -> SymmetryGroup | None:
    """The verified symmetry group of ``(protocol, inputs)``, or ``None``.

    Discovers topology automorphisms, keeps the subgroup fixing the input
    vector, and exhaustively verifies reaction equivariance for a
    generating set (verified automorphisms compose, so generators
    suffice).  Returns ``None`` — callers fall back to the unquotiented
    search — when the protocol is stateful, the label space cannot be
    enumerated, any budget is exceeded, or no nontrivial automorphism
    survives verification; :func:`symmetry_decline_reason` says which.
    """
    return _symmetry_entry(protocol, inputs, max_order, verify_budget)[0]


def symmetry_decline_reason(
    protocol,
    inputs: Sequence[Any],
    max_order: int = DEFAULT_MAX_GROUP_ORDER,
    verify_budget: int = DEFAULT_VERIFY_BUDGET,
) -> str | None:
    """Why :func:`protocol_symmetry_group` returns ``None`` for these
    arguments, or ``None`` when it returns a group.  Shares its cache."""
    return _symmetry_entry(protocol, inputs, max_order, verify_budget)[1]


def _symmetry_entry(protocol, inputs, max_order, verify_budget):
    inputs = tuple(inputs)
    try:
        per_protocol = _SYMMETRY_CACHE.setdefault(protocol, {})
        cache_key = (inputs, max_order, verify_budget)
        if cache_key in per_protocol:
            return per_protocol[cache_key]
    except TypeError:  # unhashable inputs: skip caching
        per_protocol = None
        cache_key = None

    entry = _build_symmetry_group(protocol, inputs, max_order, verify_budget)
    if per_protocol is not None:
        per_protocol[cache_key] = entry
    return entry


def _build_symmetry_group(protocol, inputs, max_order, verify_budget):
    """``(group, None)``, or ``(None, reason)`` when there is no quotient."""
    from repro.core.compiled import compile_protocol

    if protocol.is_stateful:
        return None, "stateful protocol"
    space = protocol.label_space
    try:
        size = space.size
    except Exception:
        return None, "label space not enumerable"
    if not isinstance(size, int) or size < 1:
        return None, "label space not enumerable"
    if size > verify_budget:
        return None, f"verify budget exceeded: {size} labels > {verify_budget}"
    space_values = tuple(space)

    generators = automorphism_generators(protocol.topology)
    if not generators:
        return None, "no input-invariant automorphism: topology has none"
    try:
        elements = close_generators(generators, protocol.n, cap=max_order)
    except ValidationError:
        return None, (
            f"order cap exceeded: the automorphism group has more than {max_order}"
            " elements"
        )
    invariant = [p for p in elements if _input_invariant(p, inputs)]
    if len(invariant) <= 1:
        return None, "no input-invariant automorphism"
    candidates, closure = _generating_set(invariant, protocol.n)

    compiled = compile_protocol(protocol)
    combos = sum(
        size ** len(compiled.in_positions[i]) for i in range(protocol.n)
    )
    if combos > verify_budget:
        return None, (
            f"verify budget exceeded: {combos} neighborhood combinations"
            f" > {verify_budget}"
        )

    verified = []
    for perm in candidates:
        eperm = edge_permutation(protocol.topology, perm)
        if eperm is not None and _verify_generator(
            compiled, inputs, perm, eperm, space_values
        ):
            verified.append(perm)
    if not verified:
        return None, "equivariance failed for every candidate generator"
    if verified != candidates:
        closure = close_generators(verified, protocol.n, cap=max_order)
    group = SymmetryGroup(
        protocol.topology, closure, label_universe=frozenset(space_values)
    )
    return group, None
