"""Tests for the service layer's canonical fingerprints.

Two satellite suites guard the cache's content addressing:

* **Golden fixtures** (``tests/fixtures/golden_fingerprints.json``): the
  committed digests of the protocol zoo, schedule/fault components, and
  full case keys.  Any canonicalization drift — a reordered field, a
  changed tag letter, a new attribute leaking into the tree — changes these
  digests and would silently poison every existing on-disk cache; the
  fixture turns that into a loud test failure.  If a change is
  *intentional*, bump ``ENGINE_VERSION`` (retiring old caches) and
  regenerate the fixture.
* **Near-miss matrix**: cases differing in exactly one semantic dimension
  (a seed, a fault fire time, a schedule phase, one labeling bit, ...)
  must never share a fingerprint — a collision here would serve one case's
  result for another.  Cosmetic state (tags, names, case position) must
  *not* separate fingerprints, or identical resubmissions would always
  miss.
"""

import enum
import gc
import importlib
import json
import pickle
import random
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import SweepCase
from repro.core import (
    Labeling,
    LambdaReaction,
    StatelessProtocol,
    SynchronousSchedule,
    UniformReaction,
    binary,
)
from repro.core.schedule import (
    ExplicitSchedule,
    RandomRFairSchedule,
    RoundRobinSchedule,
    ShiftedSchedule,
)
from repro.exceptions import FingerprintError
from repro.faults.models import RandomCorruption, StuckAtFault
from repro.faults.schedules import BurstFault, NoFaults, OneShotFault
from repro.graphs import clique, unidirectional_ring
from repro.service import ENGINE_VERSION, canonical, fingerprint
from repro.service.plan import plan_resilience_sweep, plan_sweep

# The package re-exports the ``fingerprint`` function under the module's name.
fingerprint_module = importlib.import_module("repro.service.fingerprint")

FIXTURE = Path(__file__).parent / "fixtures" / "golden_fingerprints.json"


# Module-level reaction so the protocol (and plans over it) pickle.
def _forward_bit(incoming, _x):
    (value,) = incoming.values()
    return value, value


def _picklable_ring(n):
    topology = unidirectional_ring(n)
    reactions = [
        UniformReaction(topology.out_edges(i), _forward_bit) for i in range(n)
    ]
    return StatelessProtocol(topology, binary(), reactions, name="ring")


def _golden() -> dict:
    return json.loads(FIXTURE.read_text())


def _zoo_protocols() -> dict:
    from repro.dynamics.congestion import congestion_protocol
    from repro.dynamics.diffusion import contagion_protocol
    from repro.power.counters import d_counter_protocol, two_counter_protocol
    from repro.power.unidirectional import worst_case_protocol
    from repro.stabilization.example_clique import example1_protocol

    return {
        "example1_clique_n4": example1_protocol(4),
        "two_counter_n5": two_counter_protocol(5),
        "d_counter_n5_mod3": d_counter_protocol(5, 3),
        "worst_case_n4_q2": worst_case_protocol(4, 2),
        "contagion_clique4_theta0.5": contagion_protocol(clique(4), 0.5),
        "congestion_players3": congestion_protocol(3),
    }


def _zoo_components() -> dict:
    return {
        "synchronous_n4": SynchronousSchedule(4),
        "round_robin_n4": RoundRobinSchedule(4),
        "random_rfair_n4_r2_seed7": RandomRFairSchedule(4, r=2, seed=7),
        "explicit_2cycle_n3": ExplicitSchedule(3, [(0,), (1, 2)], cycle=True),
        "no_faults": NoFaults(),
        "oneshot_t3_corrupt0.5_seed1": OneShotFault(
            3, RandomCorruption(0.5, seed=1)
        ),
    }


def _example1_plans():
    from repro.stabilization.example_clique import example1_protocol

    protocol = example1_protocol(4)
    topology = protocol.topology
    cases = [
        SweepCase((0,) * 4, Labeling(topology, (0,) * topology.m)),
        SweepCase((0,) * 4, Labeling(topology, (1, 0) * (topology.m // 2))),
    ]
    plan = plan_sweep(
        protocol, cases, lambda i, c: SynchronousSchedule(4), max_steps=100
    )
    rplan = plan_resilience_sweep(
        protocol,
        cases,
        lambda i, c: RoundRobinSchedule(4),
        lambda i, c: OneShotFault(3, RandomCorruption(0.5, seed=i)),
        max_steps=100,
    )
    return plan, rplan


class TestGoldenFingerprints:
    """The committed digests must be reproducible from source, forever
    (within one ``ENGINE_VERSION``)."""

    def test_fixture_matches_engine_version(self):
        assert _golden()["engine_version"] == ENGINE_VERSION

    def test_protocol_zoo_digests(self):
        golden = _golden()["protocols"]
        built = {name: fingerprint(p) for name, p in _zoo_protocols().items()}
        assert built == golden

    def test_component_digests(self):
        golden = _golden()["components"]
        built = {name: fingerprint(c) for name, c in _zoo_components().items()}
        assert built == golden

    def test_case_and_plan_digests(self):
        golden = _golden()["cases"]
        plan, rplan = _example1_plans()
        assert plan.case_fingerprint(plan.specs[0]) == golden["example1_sweep_case0"]
        assert plan.case_fingerprint(plan.specs[1]) == golden["example1_sweep_case1"]
        assert plan.plan_fingerprint == golden["example1_sweep_plan"]
        assert (
            rplan.case_fingerprint(rplan.specs[0])
            == golden["example1_resilience_case0"]
        )
        assert rplan.plan_fingerprint == golden["example1_resilience_plan"]

    def test_rebuilding_gives_identical_digests(self):
        # Construction is deterministic: two independent builds agree.
        first = {name: fingerprint(p) for name, p in _zoo_protocols().items()}
        second = {name: fingerprint(p) for name, p in _zoo_protocols().items()}
        assert first == second

    def test_pickled_plan_keeps_its_fingerprints(self):
        # The id-keyed memo must not survive pickling (ids are
        # process-local); fingerprints recomputed after a round-trip match.
        # Needs module-level reactions — closure-built protocols (the zoo)
        # do not pickle, by design.
        protocol = _picklable_ring(3)
        topology = protocol.topology
        plan = plan_sweep(
            protocol,
            [SweepCase((0, 0, 0), Labeling(topology, (0, 1, 0)))],
            lambda i, c: SynchronousSchedule(3),
        )
        before = plan.case_fingerprints()
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.case_fingerprints() == before
        assert clone.plan_fingerprint == plan.plan_fingerprint


def _ring_protocol(n=3, flip=False):
    topology = unidirectional_ring(n)

    def forward(incoming, _x):
        (value,) = incoming.values()
        return value, value

    def negate(incoming, _x):
        (value,) = incoming.values()
        return 1 - value, 1 - value

    fn = negate if flip else forward
    reactions = [UniformReaction(topology.out_edges(i), fn) for i in range(n)]
    return StatelessProtocol(topology, binary(), reactions, name="ring")


class TestNearMissMatrix:
    """One-dimension-apart cases must never collide."""

    def _case_key(self, *, inputs=(0, 0, 0), values=(0, 0, 0), outputs=None,
                  schedule=None, faults=None, max_steps=64, flip=False,
                  kind=None):
        protocol = _ring_protocol(flip=flip)
        topology = protocol.topology
        case = SweepCase(
            inputs, Labeling(topology, values), initial_outputs=outputs
        )
        if schedule is None:
            schedule = SynchronousSchedule(3)
        if kind is None:
            kind = "sweep" if faults is None else "resilience"
        if kind == "sweep":
            plan = plan_sweep(
                protocol, [case], lambda i, c: schedule, max_steps=max_steps
            )
        else:
            plan = plan_resilience_sweep(
                protocol,
                [case],
                lambda i, c: schedule,
                lambda i, c: faults if faults is not None else NoFaults(),
                max_steps=max_steps,
            )
        return plan.case_fingerprint(plan.specs[0])

    def test_every_semantic_dimension_separates(self):
        baseline_faults = OneShotFault(3, RandomCorruption(0.5, seed=0))
        variants = {
            "baseline": self._case_key(),
            # case state
            "input_entry": self._case_key(inputs=(1, 0, 0)),
            "labeling_bit": self._case_key(values=(1, 0, 0)),
            "initial_outputs": self._case_key(outputs=(0, 0, 0)),
            "max_steps": self._case_key(max_steps=65),
            "reaction_body": self._case_key(flip=True),
            # schedule identity and phase
            "round_robin": self._case_key(schedule=RoundRobinSchedule(3)),
            "rfair_seed_0": self._case_key(
                schedule=RandomRFairSchedule(3, r=2, seed=0)
            ),
            "rfair_seed_1": self._case_key(
                schedule=RandomRFairSchedule(3, r=2, seed=1)
            ),
            "rfair_r": self._case_key(
                schedule=RandomRFairSchedule(3, r=3, seed=0)
            ),
            "explicit": self._case_key(
                schedule=ExplicitSchedule(3, [(0,), (1,), (2,)], cycle=True)
            ),
            "explicit_rotated": self._case_key(
                schedule=ExplicitSchedule(3, [(1,), (2,), (0,)], cycle=True)
            ),
            "shifted_1": self._case_key(
                schedule=ShiftedSchedule(SynchronousSchedule(3), 1)
            ),
            "shifted_2": self._case_key(
                schedule=ShiftedSchedule(SynchronousSchedule(3), 2)
            ),
            # plan kind: the same physical case, fault-free, still must not
            # collide with the plain sweep (different engine code path)
            "resilience_no_faults": self._case_key(faults=NoFaults()),
            # fault plan dimensions
            "fault_baseline": self._case_key(faults=baseline_faults),
            "fault_time": self._case_key(
                faults=OneShotFault(4, RandomCorruption(0.5, seed=0))
            ),
            "fault_fraction": self._case_key(
                faults=OneShotFault(3, RandomCorruption(0.25, seed=0))
            ),
            "fault_seed": self._case_key(
                faults=OneShotFault(3, RandomCorruption(0.5, seed=1))
            ),
            "fault_schedule_shape": self._case_key(
                faults=BurstFault([3], RandomCorruption(0.5, seed=0))
            ),
            "fault_model_kind": self._case_key(
                faults=OneShotFault(3, StuckAtFault([(0, 1)], 1))
            ),
        }
        digests = list(variants.values())
        assert len(set(digests)) == len(digests), {
            name: digest[:12] for name, digest in variants.items()
        }

    def test_cosmetic_state_does_not_separate(self):
        protocol = _ring_protocol()
        topology = protocol.topology
        schedule = SynchronousSchedule(3)

        def build(tag, name, order):
            renamed = StatelessProtocol(
                topology, protocol.label_space, protocol.reactions, name=name
            )
            cases = [
                SweepCase((0, 0, 0), Labeling(topology, (0, 0, 0)), tag=tag),
                SweepCase((1, 1, 1), Labeling(topology, (1, 1, 1)), tag=tag),
            ]
            if order:
                cases.reverse()
            return plan_sweep(renamed, cases, lambda i, c: schedule)

        a = build(tag="first", name="ring", order=False)
        b = build(tag="second", name="renamed-ring", order=True)
        # Same physical cases -> same fingerprints, regardless of tag,
        # protocol name, or position in the sweep.
        assert set(a.case_fingerprints()) == set(b.case_fingerprints())
        # ...but the plan fingerprint is order-sensitive (a plan is a
        # sequence, and job records key on the exact submission).
        assert a.plan_fingerprint != b.plan_fingerprint


class TestRefusals:
    """Objects without a stable identity are rejected, not mis-keyed."""

    def test_lambda_reactions_are_refused(self):
        topology = clique(3)
        reactions = [
            LambdaReaction(lambda incoming, x: (0, 0)) for _ in range(3)
        ]
        protocol = StatelessProtocol(topology, binary(), reactions)
        with pytest.raises(FingerprintError, match="lambda"):
            fingerprint(protocol)

    def test_raw_rng_state_is_refused(self):
        with pytest.raises(FingerprintError):
            fingerprint(random.Random(0))

    def test_rfair_schedule_fingerprints_by_seed_not_rng(self):
        # The RNG-bearing schedule is canonicalized through its registered
        # (n, r, p, seed) extractor, so consuming the RNG changes nothing.
        schedule = RandomRFairSchedule(4, r=2, seed=9)
        before = fingerprint(schedule)
        schedule.active(0), schedule.active(7)  # realize some steps
        assert fingerprint(schedule) == before
        assert fingerprint(RandomRFairSchedule(4, r=2, seed=9)) == before

    def test_canonical_is_repr_stable(self):
        # canonical() output feeds repr() -> sha256; it must be a pure tree
        # of scalars/tuples (no object addresses leaking in).
        tree = canonical(_zoo_components()["oneshot_t3_corrupt0.5_seed1"])
        assert "0x" not in repr(tree)


class _Bit(enum.IntEnum):
    LOW = 0
    HIGH = 1


def _recursive_canonical(obj):
    """The per-item recursion canonicalization does for any sequence."""
    if isinstance(obj, (tuple, list)):
        return ("T", tuple(_recursive_canonical(item) for item in obj))
    return canonical(obj)


_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(list(_Bit))
    | st.text(max_size=4)
    | st.binary(max_size=4)
    | st.floats(allow_nan=False)
)
_SEQUENCES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple),
    max_leaves=20,
)


class TestPrimitiveSequenceFastPath:
    """Sequences of self-canonical items skip the per-item recursion; the
    tree they get must be the recursion's, object for object."""

    @given(_SEQUENCES)
    def test_tree_matches_the_recursive_path(self, obj):
        tree = canonical(obj)
        expected = _recursive_canonical(obj)
        # repr is what gets hashed: it separates True from 1 and an IntEnum
        # member from its value, which == alone would not.
        assert tree == expected
        assert repr(tree) == repr(expected)

    @given(st.lists(st.none() | st.booleans() | st.integers() | st.text()))
    def test_flat_primitive_sequences_keep_their_items(self, items):
        for obj in (items, tuple(items)):
            assert canonical(obj) == ("T", tuple(items))

    def test_intenum_and_float_items_keep_their_forms(self):
        assert repr(canonical((_Bit.HIGH, 0))) == repr(("T", (_Bit.HIGH, 0)))
        assert canonical([1, 0.5]) == ("T", (1, ("f", "0.5")))


class TestProtocolDigestCache:
    """Protocol digests are cached weakly per protocol object, like
    ``compile_protocol``'s compiled forms."""

    def test_entry_dies_with_its_protocol(self):
        cache = fingerprint_module._PROTOCOL_DIGESTS
        gc.collect()
        before = len(cache)
        protocol = _picklable_ring(3)
        digest = fingerprint_module.protocol_fingerprint(protocol)
        assert cache[protocol] == digest == fingerprint(protocol)
        assert len(cache) == before + 1
        alive = weakref.ref(protocol)
        del protocol
        gc.collect()
        assert alive() is None
        assert len(cache) == before

    def test_second_use_is_served_from_the_cache(self, monkeypatch):
        protocol = _picklable_ring(3)
        digest = fingerprint_module.protocol_fingerprint(protocol)

        def refuse(_obj):
            raise AssertionError("protocol digest was recomputed")

        monkeypatch.setattr(fingerprint_module, "fingerprint", refuse)
        assert fingerprint_module.protocol_fingerprint(protocol) == digest
        plan = plan_sweep(
            protocol,
            [SweepCase((0, 0, 0), Labeling(protocol.topology, (0, 1, 0)))],
            lambda i, c: SynchronousSchedule(3),
        )
        assert plan.protocol_fingerprint == digest

    def test_unpickled_plan_recomputes_the_same_digest(self):
        protocol = _picklable_ring(3)
        plan = plan_sweep(
            protocol,
            [SweepCase((0, 0, 0), Labeling(protocol.topology, (0, 1, 0)))],
            lambda i, c: SynchronousSchedule(3),
        )
        digest = fingerprint_module.protocol_fingerprint(protocol)
        # Pickled before the plan memoized its digest, so the clone must
        # compute one for its own (new) protocol object.
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.protocol is not protocol
        assert clone.protocol not in fingerprint_module._PROTOCOL_DIGESTS
        assert clone.protocol_fingerprint == digest
        assert fingerprint_module._PROTOCOL_DIGESTS[clone.protocol] == digest

    def test_equal_protocols_get_equal_digests_in_separate_entries(self):
        cache = fingerprint_module._PROTOCOL_DIGESTS
        first, second = _picklable_ring(4), _picklable_ring(4)
        assert first is not second
        digests = [
            fingerprint_module.protocol_fingerprint(p) for p in (first, second)
        ]
        assert digests[0] == digests[1] == fingerprint(first)
        keys = [ref() for ref in cache.keyrefs()]
        assert sum(key is first for key in keys) == 1
        assert sum(key is second for key in keys) == 1

    def test_concurrent_first_uses_agree(self):
        # Submitting threads and service workers race on a protocol's first
        # digest; every racer must get the one digest, stored once.
        protocol = _picklable_ring(5)
        expected = fingerprint(protocol)
        digests = []
        barrier = threading.Barrier(8)

        def first_use():
            barrier.wait(timeout=10)
            digests.append(fingerprint_module.protocol_fingerprint(protocol))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert digests == [expected] * 8
        keys = [ref() for ref in fingerprint_module._PROTOCOL_DIGESTS.keyrefs()]
        assert sum(key is protocol for key in keys) == 1
