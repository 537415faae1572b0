"""Canonical content fingerprints for sweep work.

Every object the paper's experiments run — a verdict, a witness, a
``SweepReport`` — is a pure function of its inputs: protocol, topology,
schedule, fault plan, seeds.  The service layer exploits that purity by
content-addressing results: :func:`fingerprint` maps any of the model
objects to a stable SHA-256 hex digest, and two objects share a digest
exactly when they describe the same computation.

The digest is computed over a *canonical tree*: a nested structure of
primitives (ints, strings, tagged tuples) built by :func:`canonical`.  The
rules that matter for cache soundness:

* **Stability.**  The tree depends only on constructor-level state, never on
  memoized or derived state.  Seeded random schedules fingerprint by
  ``(n, r, p, seed)`` — their realized activation sets are a deterministic
  function of the seed, so the memo is irrelevant; ``random.Random``
  instances and other mutable-state objects are refused outright
  (:class:`~repro.exceptions.FingerprintError`) rather than hashed unstably.
* **Injectivity (best effort, fail closed).**  Distinct computations must
  not collide.  Known model classes (topologies, label spaces, reactions,
  schedules, fault models and plans) have registered extractors covering
  exactly their defining state; unknown objects fall back to *all* of their
  instance attributes plus their class path; plain functions are identified
  by module, qualified name, defaults, and recursively-canonicalized closure
  cells.  Anonymous ``lambda``s are refused — every lambda in a module
  shares the qualified name ``<lambda>``, so two different ones could
  collide — use a named function for reactions that should be cacheable.
* **Name-keyed code.**  A named reaction function is identified by *name*,
  not bytecode (bytecode differs across interpreter versions, which would
  shard the cache per Python minor version for no semantic reason).  Editing
  a function's body without renaming it therefore does NOT change its
  fingerprint: when engine or reaction semantics change, bump
  :data:`ENGINE_VERSION` — it salts every digest and retires the whole
  cache at once.  The golden-fingerprint fixtures in
  ``tests/test_service_fingerprint.py`` fail when canonicalization drifts
  accidentally.

Cosmetic state — protocol/topology/label-space ``name`` strings, case
``tag``s — is excluded: renaming a protocol must hit the same cache entry.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import random
import types
import weakref
from collections.abc import Callable, Mapping, Set

from repro.core.configuration import Configuration, Labeling
from repro.core.labels import (
    BitStrings,
    ExplicitLabelSpace,
    IntegerRange,
    ProductSpace,
)
from repro.core.protocol import StatefulProtocol, StatelessProtocol
from repro.core.reaction import (
    ConstantReaction,
    LambdaReaction,
    LambdaStatefulReaction,
    TabularReaction,
    UniformReaction,
)
from repro.core.schedule import (
    ExplicitSchedule,
    LassoSchedule,
    RandomRFairSchedule,
    RoundRobinSchedule,
    ShiftedSchedule,
    SynchronousSchedule,
)
from repro.exceptions import FingerprintError
from repro.faults.schedules import (
    BurstFault,
    ComposedFaultSchedule,
    NoFaults,
    OneShotFault,
    PeriodicFault,
    WindowFault,
)
from repro.graphs.topology import Topology

#: The engine/kernel version salt.  Mixed into every digest; bump it when
#: the engine's observable run semantics change (or when canonicalization
#: itself changes), which invalidates every previously cached result in one
#: stroke instead of silently serving stale reports.
ENGINE_VERSION = "repro-engine-1"

#: Registered state extractors, keyed by *exact* type (subclasses fall back
#: to the generic attribute walk so state added by a subclass is never
#: silently dropped from the digest).
_EXTRACTORS: dict[type, Callable] = {}


def register_fingerprint(cls: type):
    """Register ``fn(obj) -> state`` as the canonical state of ``cls``.

    The extractor must return exactly the constructor-level state that
    determines the object's behavior — nothing memoized, nothing cosmetic.
    It applies to instances of ``cls`` itself only, never to subclasses.
    """

    def decorate(fn):
        _EXTRACTORS[cls] = fn
        return fn

    return decorate


def _classpath(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


def _canonical_function(fn, stack) -> tuple:
    qualname = fn.__qualname__
    if "<lambda>" in qualname:
        raise FingerprintError(
            f"cannot fingerprint lambda {fn.__module__}.{qualname}: every"
            f" lambda in a module shares that name, so two different ones"
            f" could collide in the cache — use a named function"
        )
    closure = ()
    if fn.__closure__:
        closure = tuple(
            _canonical(cell.cell_contents, stack) for cell in fn.__closure__
        )
    defaults = ()
    if fn.__defaults__:
        defaults = tuple(_canonical(value, stack) for value in fn.__defaults__)
    return ("F", fn.__module__, qualname, defaults, closure)


def _object_state(obj) -> dict:
    """Every instance attribute of ``obj`` (``__dict__`` plus slots)."""
    state = dict(getattr(obj, "__dict__", ()) or ())
    for cls in type(obj).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name != "__dict__" and hasattr(obj, name):
                state.setdefault(name, getattr(obj, name))
    return state


def _sort_key(tree) -> str:
    return repr(tree)


#: Exact item types a tuple or list may hold to take the fast path in
#: :func:`_canonical`: each is its own canonical form, so the sequence's
#: tree is ``("T", tuple(obj))`` without a per-item recursion.  Subclasses
#: (``IntEnum`` members, ...) and floats take the recursive path.
_SELF_CANONICAL = frozenset({type(None), bool, int, str, bytes})


def _canonical(obj, stack: list) -> object:
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if isinstance(obj, float):
        return ("f", repr(obj))
    if isinstance(obj, (tuple, list)) and _SELF_CANONICAL.issuperset(
        map(type, obj)
    ):
        return ("T", tuple(obj))

    identity = id(obj)
    if identity in stack:
        raise FingerprintError(
            f"cannot fingerprint {type(obj).__name__}: cyclic object graph"
        )
    stack.append(identity)
    try:
        if isinstance(obj, (tuple, list)):
            return ("T", tuple(_canonical(item, stack) for item in obj))
        if isinstance(obj, Set):
            items = sorted(
                (_canonical(item, stack) for item in obj), key=_sort_key
            )
            return ("S", tuple(items))
        if isinstance(obj, Mapping):
            pairs = sorted(
                (
                    (_canonical(key, stack), _canonical(value, stack))
                    for key, value in obj.items()
                ),
                key=_sort_key,
            )
            return ("M", tuple(pairs))
        if isinstance(obj, enum.Enum):
            return ("E", _classpath(type(obj)), obj.name)
        if isinstance(obj, types.FunctionType):
            return _canonical_function(obj, stack)
        if isinstance(obj, types.MethodType):
            return (
                "B",
                _canonical(obj.__self__, stack),
                obj.__func__.__qualname__,
            )
        if isinstance(obj, functools.partial):
            return (
                "P",
                _canonical(obj.func, stack),
                _canonical(obj.args, stack),
                _canonical(dict(obj.keywords), stack),
            )
        if isinstance(obj, (random.Random, types.ModuleType, types.GeneratorType)):
            raise FingerprintError(
                f"cannot fingerprint {type(obj).__name__}: its state is"
                f" mutable or process-local, so a digest over it would be"
                f" unstable"
            )

        extractor = _EXTRACTORS.get(type(obj))
        if extractor is not None:
            return (
                "O",
                _classpath(type(obj)),
                _canonical(extractor(obj), stack),
            )
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            fields = tuple(
                (field.name, _canonical(getattr(obj, field.name), stack))
                for field in dataclasses.fields(obj)
            )
            return ("D", _classpath(type(obj)), fields)
        state = _object_state(obj)
        if not state:
            raise FingerprintError(
                f"cannot fingerprint {type(obj).__name__}: no registered"
                f" extractor and no instance attributes to derive state from"
                f" (register one with repro.service.register_fingerprint)"
            )
        attrs = tuple(
            (name, _canonical(value, stack))
            for name, value in sorted(state.items())
        )
        return ("O", _classpath(type(obj)), attrs)
    finally:
        stack.pop()


def canonical(obj) -> object:
    """The canonical tree of ``obj`` (deterministic, version-stable).

    Raises :class:`~repro.exceptions.FingerprintError` for objects that
    cannot be canonicalized stably (lambdas, RNG instances, cycles).
    """
    return _canonical(obj, [])


def fingerprint(obj) -> str:
    """SHA-256 hex digest of ``obj``'s canonical tree, salted with
    :data:`ENGINE_VERSION`."""
    tree = ("repro", ENGINE_VERSION, canonical(obj))
    return hashlib.sha256(repr(tree).encode()).hexdigest()


#: Protocol digests, keyed weakly on the protocol object — the same
#: mechanism as :func:`repro.core.compiled.compile_protocol`'s cache, with
#: the same contract: a protocol must not be mutated after its first use.
_PROTOCOL_DIGESTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def protocol_fingerprint(protocol) -> str:
    """:func:`fingerprint` of ``protocol``, computed once per protocol object.

    Every plan over one protocol shares the digest, so resubmitting work on
    a protocol never re-canonicalizes its reaction tables.  Entries die with
    their protocols.
    """
    digest = _PROTOCOL_DIGESTS.get(protocol)
    if digest is None:
        digest = _PROTOCOL_DIGESTS[protocol] = fingerprint(protocol)
    return digest


# -- registered extractors for the model classes ------------------------------
#
# Each extractor returns exactly the behavior-determining constructor state.
# ``name`` strings are cosmetic everywhere and deliberately excluded.

register_fingerprint(Topology)(lambda t: (t.n, t.edges))
register_fingerprint(Labeling)(lambda l: (l.topology, l.values))
register_fingerprint(Configuration)(lambda c: (c.labeling, c.outputs))

register_fingerprint(ExplicitLabelSpace)(lambda s: (s.values,))
register_fingerprint(BitStrings)(lambda s: (s.k,))
register_fingerprint(IntegerRange)(lambda s: (s.size,))
register_fingerprint(ProductSpace)(lambda s: (s.components,))

register_fingerprint(StatelessProtocol)(
    lambda p: (p.topology, p.label_space, p.reactions)
)
register_fingerprint(StatefulProtocol)(
    lambda p: (p.topology, p.label_space, p.reactions)
)

register_fingerprint(LambdaReaction)(lambda r: (r._fn,))
register_fingerprint(LambdaStatefulReaction)(lambda r: (r._fn,))
register_fingerprint(UniformReaction)(lambda r: (r._out_edges, r._fn))
register_fingerprint(ConstantReaction)(
    lambda r: (r._out_edges, r._label, r._output)
)
register_fingerprint(TabularReaction)(
    lambda r: (r.in_edges, r.out_edges, r.table)
)

register_fingerprint(SynchronousSchedule)(lambda s: (s.n,))
register_fingerprint(RoundRobinSchedule)(lambda s: (s.n,))
register_fingerprint(ExplicitSchedule)(lambda s: (s.n, s.steps, s.cycle))
register_fingerprint(LassoSchedule)(lambda s: (s.n, s._prefix, s._loop))
# Realized activation sets are a deterministic function of (n, r, p, seed);
# the memo and RNG state are irrelevant and must not enter the digest.
register_fingerprint(RandomRFairSchedule)(lambda s: (s.n, s.r, s.p, s.seed))
register_fingerprint(ShiftedSchedule)(lambda s: (s.base, s.offset))

register_fingerprint(NoFaults)(lambda f: ())
register_fingerprint(OneShotFault)(lambda f: (f.time, f.model))
register_fingerprint(BurstFault)(lambda f: (f.times, f.model))
register_fingerprint(WindowFault)(lambda f: (f.start, f.stop, f.model))
register_fingerprint(PeriodicFault)(
    lambda f: (f.period, f.start, f.stop, f.model)
)
register_fingerprint(ComposedFaultSchedule)(lambda f: (f.parts,))
