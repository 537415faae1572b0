"""The protocol families the workloads run.

Reactions are module-level functions so the sweep service can fingerprint
them (lambdas are refused).

* ``xor_ring(n)``: every node forwards its incoming bit XORed with its
  input bit.  With odd input parity no stable labeling exists, so every
  run uses its whole step budget on the batch backend's ring/XOR route.
* ``majority_torus(rows, cols)``: |Sigma| = 3 plurality dynamics on a
  torus, given as :class:`~repro.core.TabularReaction` tables.  A node
  writes the most frequent incoming label; a tie goes to the tied label
  nearest above the node's input bit (mod 3), so the input shifts the
  winner.  This runs the batch backend's general grouped table route.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from repro.core import (
    ExplicitLabelSpace,
    StatelessProtocol,
    TabularReaction,
    UniformReaction,
    binary,
)
from repro.graphs import torus, unidirectional_ring

TERNARY = (0, 1, 2)


def xor_forward(incoming, x):
    (value,) = incoming.values()
    return value ^ x, value


def xor_ring(n: int) -> StatelessProtocol:
    topology = unidirectional_ring(n)
    reactions = [UniformReaction(topology.out_edges(i), xor_forward) for i in range(n)]
    return StatelessProtocol(topology, binary(), reactions, name=f"xor-ring({n})")


def odd_parity_inputs(n: int) -> tuple[int, ...]:
    return (1,) + (0,) * (n - 1)


def plurality(labels, x) -> int:
    counts = Counter(labels)
    top = max(counts.values())
    tied = [label for label in TERNARY if counts.get(label) == top]
    return min(tied, key=lambda label: (label - x) % 3)


def majority_torus(rows: int, cols: int) -> StatelessProtocol:
    topology = torus(rows, cols)
    reactions = []
    for i in range(topology.n):
        in_edges = topology.in_edges(i)
        out_edges = topology.out_edges(i)
        table = {}
        for labels in product(TERNARY, repeat=len(in_edges)):
            for x in (0, 1):
                winner = plurality(labels, x)
                table[(labels, x)] = ((winner,) * len(out_edges), winner)
        reactions.append(TabularReaction(in_edges, out_edges, table))
    return StatelessProtocol(
        topology,
        ExplicitLabelSpace(TERNARY, name="ternary"),
        reactions,
        name=f"majority-torus({rows}x{cols})",
    )
