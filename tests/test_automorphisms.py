"""Tests for the graph-automorphism substrate (repro.graphs.automorphisms).

The symmetry quotient stands on three legs: discovering automorphism
groups of the standard families, acting with them on states (labelings /
per-node vectors / activation sets), and canonicalizing states to orbit
representatives.  Each leg is checked directly here; end-to-end quotient
equivalence lives in ``test_quotient.py``.
"""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import default_inputs
from repro.exceptions import ValidationError
from repro.graphs import (
    SymmetryGroup,
    automorphism_generators,
    bidirectional_ring,
    clique,
    close_generators,
    edge_permutation,
    protocol_symmetry_group,
    star,
    symmetry_decline_reason,
    torus,
    unidirectional_ring,
)
from repro.graphs.automorphisms import (
    StateCanonicalizer,
    compose,
    identity_permutation,
    invert,
    np,
    symmetry_group_from_generators,
)

from tests.helpers import copy_ring_protocol, or_clique_protocol


def _full_group(topology):
    return close_generators(
        automorphism_generators(topology), topology.n, 100_000
    )


class TestGroupDiscovery:
    @pytest.mark.parametrize(
        "topology, order",
        [
            (clique(3), 6),
            (clique(4), 24),
            (clique(5), 120),
            (unidirectional_ring(5), 5),
            (unidirectional_ring(6), 6),
            (bidirectional_ring(5), 10),
            (bidirectional_ring(6), 12),
            (star(5), 24),  # S_4 on the leaves, hub fixed
        ],
    )
    def test_known_orders(self, topology, order):
        assert len(_full_group(topology)) == order

    def test_torus_contains_all_shifts(self):
        topology = torus(3, 3)
        elements = set(_full_group(topology))
        assert len(elements) % 9 == 0 and len(elements) >= 9

    def test_every_element_is_an_automorphism(self):
        for topology in [clique(4), bidirectional_ring(6), star(5), torus(3, 3)]:
            for perm in _full_group(topology):
                assert edge_permutation(topology, perm) is not None

    def test_non_automorphism_rejected(self):
        topology = star(4)  # hub 0; swapping hub with a leaf breaks edges
        assert edge_permutation(topology, (1, 0, 2, 3)) is None

    def test_closure_respects_cap(self):
        with pytest.raises(ValidationError):
            close_generators(automorphism_generators(clique(5)), 5, 50)


class TestPermutationAlgebra:
    def test_compose_invert_roundtrip(self):
        p, q = (1, 2, 0, 3), (3, 0, 2, 1)
        identity = identity_permutation(4)
        assert compose(p, invert(p)) == identity
        assert compose(invert(p), p) == identity
        assert invert(compose(p, q)) == compose(invert(q), invert(p))

    def test_edge_permutation_is_a_homomorphism(self):
        topology = bidirectional_ring(5)
        p, q = (1, 2, 3, 4, 0), (0, 4, 3, 2, 1)
        ep = edge_permutation(topology, p)
        eq = edge_permutation(topology, q)
        epq = edge_permutation(topology, compose(p, q))
        assert epq == compose(ep, eq)


class TestSymmetryGroupActions:
    def _group(self, topology):
        return SymmetryGroup(topology, _full_group(topology))

    def test_identity_must_come_first(self):
        topology = clique(3)
        elements = _full_group(topology)
        shuffled = [p for p in elements if p != identity_permutation(3)]
        with pytest.raises(ValidationError):
            SymmetryGroup(topology, shuffled)

    def test_index_algebra_matches_permutations(self):
        group = self._group(clique(4))
        for g in range(group.order):
            for h in range(0, group.order, 5):
                gh = group.compose(g, h)
                assert group.node_perms[gh] == compose(
                    group.node_perms[g], group.node_perms[h]
                )
            assert group.node_perms[group.inverse(g)] == invert(
                group.node_perms[g]
            )

    def test_labeling_action_is_a_group_action(self):
        group = self._group(bidirectional_ring(4))
        values = tuple(range(len(group.topology.edges)))
        for g in range(group.order):
            for h in range(group.order):
                via_compose = group.apply_labeling(group.compose(g, h), values)
                stepwise = group.apply_labeling(g, group.apply_labeling(h, values))
                assert via_compose == stepwise

    def test_per_node_action_tracks_nodes(self):
        group = self._group(clique(4))
        vector = (10, 20, 30, 40)
        for g in range(group.order):
            perm = group.node_perms[g]
            moved = group.apply_per_node(g, vector)
            for i in range(4):
                assert moved[perm[i]] == vector[i]
            assert group.apply_nodes(g, {0, 1}) == frozenset({perm[0], perm[1]})

    def test_element_order_divides_group_order(self):
        group = self._group(clique(4))
        for g in range(group.order):
            assert group.order % group.element_order(g) == 0


class TestStateCanonicalizer:
    def _setup(self, topology):
        group = SymmetryGroup(topology, _full_group(topology))
        return group, group.canonicalizer(track_outputs=False)

    def test_canonical_is_idempotent_and_orbit_invariant(self):
        topology = clique(4)
        group, canon = self._setup(topology)
        values = (0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1)[: len(topology.edges)]
        countdown = (1, 2, 3, 3)

        g0, _ = canon.canonical(values, None, countdown)
        canon_values = group.apply_labeling(g0, values)
        canon_countdown = group.apply_per_node(g0, countdown)
        for g in range(group.order):
            moved_values = group.apply_labeling(g, values)
            moved_countdown = group.apply_per_node(g, countdown)
            gk, _ = canon.canonical(moved_values, None, moved_countdown)
            assert group.apply_labeling(gk, moved_values) == canon_values
            assert group.apply_per_node(gk, moved_countdown) == canon_countdown

    def test_ties_give_exact_orbit_sizes(self):
        topology = clique(3)
        group, canon = self._setup(topology)
        import itertools

        states = list(itertools.product((0, 1), repeat=len(topology.edges)))
        orbits = {}
        for values in states:
            g0, ties = canon.canonical(values, None, (1, 1, 1))
            rep = group.apply_labeling(g0, values)
            orbit_size = group.order // ties
            orbits.setdefault(rep, set()).add(values)
            assert group.order % ties == 0
            # the claimed orbit size matches the actual orbit
            actual = {group.apply_labeling(g, values) for g in range(group.order)}
            assert len(actual) == orbit_size
        # orbits partition the space
        assert sum(len(v) for v in orbits.values()) == len(states)


def _scan_canonicalizer(group, track_outputs):
    """A canonicalizer forced onto the element scan, whatever the group."""
    canon = StateCanonicalizer(group, track_outputs)
    canon._orbits = None
    canon._prepare_scan()
    return canon


def _canonical_state(group, g, values, outputs, countdown):
    return (
        group.apply_per_node(g, countdown),
        group.apply_labeling(g, values),
        None if outputs is None else group.apply_per_node(g, outputs),
    )


#: S_2 x S_3 on clique(5): the kind of group asymmetric inputs leave.
def _two_block_group():
    return symmetry_group_from_generators(
        clique(5), [(1, 0, 2, 3, 4), (0, 1, 3, 2, 4), (0, 1, 3, 4, 2)]
    )


REFINE_GROUPS = {
    "S3": lambda: SymmetryGroup(clique(3), _full_group(clique(3))),
    "S4": lambda: SymmetryGroup(clique(4), _full_group(clique(4))),
    "S5": lambda: SymmetryGroup(clique(5), _full_group(clique(5))),
    "S2xS3": _two_block_group,
    "star": lambda: SymmetryGroup(star(5), _full_group(star(5))),
}
#: Orderable codes and objects with no order at all.
LABEL_POOLS = [(0, 1, 2), (1j, 2j, None)]


@functools.cache
def _built_group(name):
    return REFINE_GROUPS[name]()


class TestRefinementRoute:
    def test_route_follows_the_group_shape(self):
        for name, build in REFINE_GROUPS.items():
            group = build()
            assert group.canonicalizer(False).route == "refine", name
        ring = unidirectional_ring(5)
        ring_group = SymmetryGroup(ring, _full_group(ring))
        assert ring_group.canonicalizer(False).route == "scan"
        # Rotations of a clique: transitive, but far from all of S_4.
        rotations = symmetry_group_from_generators(clique(4), [(1, 2, 3, 0)])
        assert rotations.canonicalizer(True).route == "scan"

    def test_refine_skips_the_element_tables(self):
        canon = _built_group("S5").canonicalizer(False)
        assert not hasattr(canon, "_rows") and not hasattr(canon, "_matrix")

    @pytest.mark.parametrize("name", sorted(REFINE_GROUPS))
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        pool=st.sampled_from(LABEL_POOLS),
        track_outputs=st.booleans(),
    )
    def test_refine_agrees_with_the_scan(self, name, data, pool, track_outputs):
        group = _built_group(name)
        refine = group.canonicalizer(track_outputs)
        scan = _scan_canonicalizer(group, track_outputs)
        n, m = group.n, len(group.topology.edges)

        def draw(elements, size):
            return tuple(data.draw(st.lists(elements, min_size=size, max_size=size)))

        for _ in range(3):
            # Few distinct values, so the states carry real symmetry.
            values = draw(st.sampled_from(pool), m)
            countdown = draw(st.integers(1, 3), n)
            outputs = draw(st.sampled_from(pool), n) if track_outputs else None
            g, ties = refine.canonical(values, outputs, countdown)
            g0, ties0 = scan.canonical(values, outputs, countdown)
            assert ties == ties0
            assert _canonical_state(group, g, values, outputs, countdown) == (
                _canonical_state(group, g0, values, outputs, countdown)
            )

    def test_broadcast_states_match_the_scan_exhaustively(self):
        # Every binary broadcast state of K_5 under every countdown split
        # over {1, 2}: the twin-heavy shape exhaustive verification meets.
        group = _built_group("S5")
        refine = group.canonicalizer(False)
        scan = _scan_canonicalizer(group, False)
        edges = group.topology.edges
        for bits in itertools.product((0, 1), repeat=5):
            values = tuple(bits[u] for u, _ in edges)
            for countdown in itertools.product((1, 2), repeat=5):
                g, ties = refine.canonical(values, None, countdown)
                g0, ties0 = scan.canonical(values, None, countdown)
                assert ties == ties0
                assert group.apply_labeling(g, values) == (
                    group.apply_labeling(g0, values)
                )


class TestScanFallback:
    @pytest.mark.skipif(np is None, reason="the reference is the numpy scan")
    @pytest.mark.parametrize(
        "topology", [clique(3), unidirectional_ring(5)], ids=["clique", "ring"]
    )
    def test_pure_python_scan_matches_numpy(self, topology):
        group = SymmetryGroup(topology, _full_group(topology))
        vectorized = _scan_canonicalizer(group, True)
        python = _scan_canonicalizer(group, True)
        python._matrix = None
        n = topology.n
        for values in itertools.product((0, 1), repeat=topology.m):
            countdown = tuple(1 + (values[i] + i) % 2 for i in range(n))
            outputs = tuple(values[:n])
            assert python.canonical(values, outputs, countdown) == (
                vectorized.canonical(values, outputs, countdown)
            )


class TestProtocolSymmetryGroup:
    def test_or_clique_gets_the_full_symmetric_group(self):
        protocol = or_clique_protocol(clique(4))
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is not None
        assert group.order == 24
        assert group.label_universe == frozenset({0, 1})
        assert symmetry_decline_reason(protocol, default_inputs(protocol)) is None

    def test_k8_reports_the_order_cap(self):
        protocol = or_clique_protocol(clique(8))  # |S_8| = 40,320 > 10,080
        inputs = default_inputs(protocol)
        assert protocol_symmetry_group(protocol, inputs) is None
        reason = symmetry_decline_reason(protocol, inputs)
        assert reason.startswith("order cap exceeded")
        assert "10080" in reason

    def test_distinct_inputs_leave_no_automorphism(self):
        protocol = or_clique_protocol(clique(3))
        assert protocol_symmetry_group(protocol, (0, 1, 2)) is None
        assert symmetry_decline_reason(protocol, (0, 1, 2)) == (
            "no input-invariant automorphism"
        )

    def test_oversized_label_space_exceeds_the_verify_budget(self):
        protocol = or_clique_protocol(clique(3))
        inputs = default_inputs(protocol)
        assert protocol_symmetry_group(protocol, inputs, verify_budget=1) is None
        reason = symmetry_decline_reason(protocol, inputs, verify_budget=1)
        assert reason.startswith("verify budget exceeded")

    def test_result_is_cached_per_protocol(self):
        protocol = or_clique_protocol(clique(4))
        inputs = default_inputs(protocol)
        assert protocol_symmetry_group(protocol, inputs) is (
            protocol_symmetry_group(protocol, inputs)
        )

    def test_copy_ring_keeps_rotations(self):
        protocol = copy_ring_protocol(4)
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is not None
        assert group.order == 4  # rotations only on the directed ring

    def test_asymmetric_inputs_shrink_the_group(self):
        protocol = or_clique_protocol(clique(4))
        group = protocol_symmetry_group(protocol, (0, 0, 0, 7))
        # only permutations fixing node 3 survive: S_3 or nothing
        assert group is None or group.order <= 6

    def test_non_equivariant_protocol_falls_back_to_none(self):
        from repro.core import LambdaReaction, StatelessProtocol, binary

        topology = clique(3)

        def make(i):
            def fn(incoming, x):
                # node 0 behaves differently: breaks equivariance
                bit = 1 if (i == 0 or any(incoming.values())) else 0
                return {e: bit for e in topology.out_edges(i)}, bit

            return LambdaReaction(fn)

        protocol = StatelessProtocol(
            topology, binary(), [make(i) for i in range(3)], name="lopsided"
        )
        group = protocol_symmetry_group(protocol, default_inputs(protocol))
        assert group is None
        reason = symmetry_decline_reason(protocol, default_inputs(protocol))
        assert reason.startswith("equivariance failed")
