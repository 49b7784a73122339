"""Mutated input files and numbers through the qgt command.

Every input file is outside input: whatever it holds, `qgt encode` and
`qgt decode` must exit 0 (recovered), 1 (incomplete) or 2 (rejected with a
one-line error), never with an uncaught exception.  So is every number: any
float given to `qgt design --beta` or `qgt simulate --grid`, and any small
integer K, t or ell given to `qgt simulate`, exits 0 or 2.  Any int, float
or bool array of items is either held, as given, by a DefectiveView and by
sample_defectives, or refused with ValueError, and a graph's incidence
answers for it or refuses it by a value it holds.
"""

import math
import os
import re
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qgt import codec, graphs
from qgt.cli import main, parse_grid

GRAPH = graphs.sample_graph(30, 6, 2, seed=3)
EVERY_ITEM = graphs.sample_defectives(30, 6, 2, np.arange(30), seed=3)
SUPPORT = {1, 7, 20}


def _text(write, *args) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.txt")
        write(path, *args)
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()


BASE = {
    "graph": _text(lambda path: GRAPH.save(path)),
    "support": _text(codec.save_support, SUPPORT),
    "y": _text(codec.save_test_vector,
               codec.encode(GRAPH, codec.build_signature(2, GRAPH.max_right_degree), SUPPORT)),
}

numbers = st.one_of(
    st.integers(-3, 40),
    st.sampled_from([2 ** 31, 2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 10 ** 20,
                     -10 ** 20, 10 ** 9]),
)
tokens = st.sampled_from(["", "x", "1.5", "0x10", "nan", "-", "+", "1e3", "1_0", "١",
                          "\x00", "#", "3 4", "é"])
edits = st.tuples(
    st.sampled_from(list(BASE)),
    st.sampled_from(["number", "token", "drop", "repeat", "insert", "header"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
    st.one_of(numbers.map(str), tokens),
)


def mutate(lines: list[str], kind: str, where: int, at: int, value: str) -> list[str]:
    lines = list(lines)
    row = where % len(lines) if lines else 0
    if kind == "header":  # a field of the first line (the graph file's N M ell seed)
        row = 0
        kind = "number"
    if kind in ("number", "token"):
        if not lines:
            return [value]
        fields = lines[row].split() or [""]
        fields[at % len(fields)] = value
        lines[row] = " ".join(fields)
    elif kind == "drop":
        del lines[row:row + 1]
    elif kind == "repeat":
        lines[row:row] = lines[row:row + 1]
    else:
        lines.insert(row, value)
    return lines


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(edits, min_size=1, max_size=4))
def test_mutated_files_exit_cleanly(edit_list):
    files = dict(BASE)
    for name, kind, where, at, value in edit_list:
        files[name] = mutate(files[name], kind, where, at, value)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, lines in files.items():
            paths[name] = os.path.join(tmp, name + ".txt")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write("".join(line + "\n" for line in lines))
        design = ["--graph", paths["graph"], "--t", "2"]
        code = main(["encode", "--support", paths["support"],
                     "--out", os.path.join(tmp, "out.txt"), *design])
        assert code in (0, 2)
        assert main(["decode", "--y", paths["y"], *design]) in (0, 1, 2)


# every float, with the ones that break integer arithmetic drawn often
floats = st.one_of(
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e308, -1e308,
                     1.7976931348623157e308, 5e-324, -5e-324, 0.0, 1.0]),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
)


@settings(max_examples=60, deadline=None)
@given(floats)
def test_design_beta_exits_cleanly(beta):
    assert main(["design", "--N", "300", "--K", "10", f"--beta={beta!r}"]) in (0, 2)


@settings(max_examples=40, deadline=None)
@given(floats)
def test_simulate_grid_value_exits_cleanly(m_over_k):
    argv = ["simulate", "--N", "200", "--K", "5", "--trials", "1", f"--grid={m_over_k!r}"]
    assert main(argv) in (0, 2)


@settings(max_examples=200, deadline=None)
@given(floats, floats, floats)
def test_parse_grid_ranges_are_bounded(lo, hi, step):
    text = f"{lo!r}:{hi!r}:{step!r}"
    try:
        grid = parse_grid(text)
    except ValueError:
        return
    assert 1 <= len(grid) <= 100_000
    assert all(math.isfinite(v) for v in grid)


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 12), st.integers(-3, 12), st.integers(-3, 12))
def test_simulate_design_numbers_exit_cleanly(k, t, ell):
    argv = ["simulate", "--N", "200", "--grid", "20", "--trials", "1",
            "--K", str(k), "--t", str(t), "--ell", str(ell)]
    assert main(argv) in (0, 2)


def _item_values(dtype: str):
    if dtype == "bool":
        return st.booleans()
    if dtype == "float64":
        return st.one_of(st.integers(-3, 33), st.floats(-3, 33), st.just(math.nan))
    # the type's largest value is out of range at any width
    return st.integers(0 if dtype.startswith("u") else -3, 33) | st.just(np.iinfo(dtype).max)


# item arrays of every integer width, float and bool, in any order and range
# around GRAPH's N = 30
item_arrays = st.sampled_from(["int64", "int32", "uint8", "uint64", "float64", "bool"]).flatmap(
    lambda dtype: st.lists(_item_values(dtype), max_size=8).map(
        lambda values: np.array(values, dtype=dtype)))


def in_range(items: np.ndarray, n: int) -> bool:
    """Whether items are integers in [0, n), repeats allowed."""
    return items.dtype.kind in "iu" and all(0 <= v < n for v in items.tolist())


def holdable(items: np.ndarray, n: int) -> bool:
    """Whether a view may hold items: distinct integers in [0, n), any empty array."""
    values = items.tolist()
    return not values or (items.dtype.kind in "iu" and len(set(values)) == len(values)
                          and all(0 <= v < n for v in values))


def _held_or_refused(make, items: np.ndarray, valid: bool) -> None:
    try:
        view = make()
    except ValueError:
        assert not valid, items
        return
    assert valid, items
    assert view.items.dtype == np.int64 and view.items.tolist() == items.tolist()


@settings(max_examples=200, deadline=None)
@given(item_arrays)
def test_views_hold_exactly_the_valid_items(items):
    # the view takes its items ascending; the sampler takes them in any order
    # and holds them sorted.  Rows for the view are those of items 0..k-1,
    # valid for any k items, so only the items decide.
    rows = GRAPH.incidence(np.arange(len(items)))
    edges = np.concatenate([[0], np.cumsum(GRAPH.degrees())[:-1]])[rows[0]] + rows[1]
    ascending = items.tolist() == sorted(items.tolist())
    _held_or_refused(lambda: graphs.DefectiveView(30, GRAPH.degrees(), items, edges),
                     items, holdable(items, 30) and ascending)
    _held_or_refused(lambda: graphs.sample_defectives(30, 6, 2, items, seed=1),
                     np.sort(items), holdable(items, 30))
    # a whole graph and a view of every item answer for integers in [0, 30)
    # and refuse anything else without naming a negative item not given
    for holder in (GRAPH, EVERY_ITEM):
        try:
            holder.incidence(items)
        except (ValueError, IndexError) as exc:
            assert not in_range(items, 30), items
            named = [int(v) for v in re.findall(r"-\d+", str(exc))]
            assert set(named) <= set(items.tolist()), (items, exc)
        else:
            assert in_range(items, 30), items
