"""Every public entry point that takes an array refuses a non-integer one.

A float, bool, string or object array (the last holding 2^70, beyond int64)
is fed to each array parameter in turn, at a shape the call would take; each
call raises ValueError naming what it was given, before a cast could
truncate, wrap or read a bool as 0 or 1.
"""

import re

import numpy as np
import pytest

from qgt.bch import decode_syndromes, syndrome_from_bits
from qgt.codec import build_signature, decode, encode, measurement_matrix, resolve_node
from qgt.graphs import DefectiveView, sample_defectives, sample_graph

GRAPH = sample_graph(60, 6, 2, seed=1)
VIEW = sample_defectives(60, 6, 2, [3, 9], seed=1)
SIG = build_signature(2, GRAPH.max_right_degree)
SPEC = SIG.bch
FIELD = SPEC.field
ITEMS = np.array([3, 9])
EDGES = np.array([[0, 20], [1, 21]])


def zeros(*shape):
    return np.zeros(shape, dtype=np.int64)


ZEROS = zeros(2)


# (entry point, the name its refusal gives, call, an argument it takes); the
# bad arrays take that argument's shape.  decode names y "test vector" and
# resolve_node names z "slices", as their docstrings call them
ENTRY_POINTS = [
    ("GF2m.bit_columns", "elements", FIELD.bit_columns, zeros(3)),
    ("GF2m.element_from_bits", "bits", FIELD.element_from_bits, zeros(2, FIELD.degree)),
    ("bch.syndrome_from_bits", "bits", lambda a: syndrome_from_bits(SPEC, a),
     zeros(2, SPEC.syndrome_bits)),
    ("bch.decode_syndromes", "syndromes", lambda a: decode_syndromes(SPEC, a, ZEROS),
     zeros(2, SPEC.t)),
    ("bch.decode_syndromes", "counts", lambda a: decode_syndromes(SPEC, zeros(2, SPEC.t), a),
     ZEROS),
    ("codec.resolve_node", "slices", lambda a: resolve_node(a, SIG), zeros(2, SIG.s)),
    ("encode", "support", lambda a: encode(GRAPH, SIG, a), ITEMS),
    ("encode on a view", "support", lambda a: encode(VIEW, SIG, a), ITEMS),
    ("decode", "test vector", lambda a: decode(GRAPH, SIG, a), zeros(GRAPH.n_right * SIG.s + 1)),
    ("decode on a view", "test vector", lambda a: decode(VIEW, SIG, a),
     zeros(VIEW.n_right * SIG.s + 1)),
    ("incidence", "items", GRAPH.incidence, ITEMS),
    ("incidence on a view", "items", VIEW.incidence, ITEMS),
    ("items_at", "groups", lambda a: GRAPH.items_at(a, ZEROS), ZEROS),
    ("items_at", "positions", lambda a: GRAPH.items_at(ZEROS, a), ZEROS),
    ("items_at on a view", "groups", lambda a: VIEW.items_at(a, ZEROS), ZEROS),
    ("items_at on a view", "positions", lambda a: VIEW.items_at(ZEROS, a), ZEROS),
    ("DefectiveView", "items", lambda a: DefectiveView(60, VIEW.degrees(), a, EDGES), ITEMS),
    ("DefectiveView", "edges", lambda a: DefectiveView(60, VIEW.degrees(), ITEMS, a), EDGES),
    ("DefectiveView", "degrees", lambda a: DefectiveView(60, a, ITEMS, EDGES), VIEW.degrees()),
    ("measurement_matrix", "graph", lambda a: measurement_matrix(a, SIG), GRAPH),
]

BAD_ARRAYS = {
    "float": lambda shape: np.full(shape, 1.0),
    "bool": lambda shape: np.ones(shape, dtype=bool),
    "string": lambda shape: np.full(shape, "1"),
    "beyond int64": lambda shape: np.full(shape, 1 << 70, dtype=object),
}
IDS = [f"{entry}-{name}" for entry, name, _, _ in ENTRY_POINTS]


@pytest.mark.parametrize("kind", list(BAD_ARRAYS))
@pytest.mark.parametrize("entry, name, call, good", ENTRY_POINTS, ids=IDS)
def test_array_entry_points_refuse_a_non_integer_array_by_name(entry, name, call, good, kind):
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}\b"):
        call(BAD_ARRAYS[kind](np.shape(good)))


@pytest.mark.parametrize("entry, name, call, good", ENTRY_POINTS, ids=IDS)
def test_array_entry_points_take_the_integer_argument(entry, name, call, good):
    # so the refusals above come from the dtype, not from the shape
    call(good)
