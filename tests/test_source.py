"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qgt"


def test_no_assert_statements():
    # python -O strips assert statements; qgt's checks raise explicitly so
    # that they still check there
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def method_caches(source: str) -> list[int]:
    """Lines where functools.lru_cache or cache decorates a function in a class."""
    lines = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in ast.walk(cls):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in fn.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    lines.append(dec.lineno)
    return lines


def test_no_caches_on_methods():
    # a cache on a method keys on self, so it keeps every instance it saw
    # alive (a field and its tables, once make_field drops it); tables built
    # per instance belong on the instance
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in method_caches(path.read_text(encoding="utf-8"))]
    assert found == []
    caught = method_caches("import functools\nfrom functools import cache, lru_cache\n"
                           "class A:\n"
                           "    @lru_cache\n    def a(self): pass\n"
                           "    @functools.lru_cache(maxsize=8)\n    def b(self): pass\n"
                           "    @cache\n    def c(self): pass\n"
                           "    @staticmethod\n    @functools.cache\n    def d(): pass\n"
                           "@lru_cache\ndef free(x): pass\n")
    assert caught == [4, 6, 8, 11]


def test_only_bch_names_the_oracle():
    # Berlekamp-Massey with the Chien scan is the tests' oracle: no module but
    # bch.py, and no demo, reaches it; decode_syndromes does not match
    oracle = re.compile(r"\b(find_error_locator|find_roots|decode_syndrome|DecodeFailure)\b")
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "bch.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    assert len(paths) >= 13
    found = [f"{path.relative_to(ROOT)}:{i}"
             for path in paths
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if oracle.search(line)]
    assert found == []


def lines_by_owner(source: str, matches) -> dict[str, list[int]]:
    """Lines of the nodes that matches(node) picks, by the name of the
    outermost function that holds each ("" at module level)."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)
    found = {}
    for node in ast.walk(tree):
        if matches(node):
            found.setdefault(owner.get(id(node), ""), []).append(node.lineno)
    return found


def integers_calls(source: str) -> dict[str, list[int]]:
    """Lines of .integers( calls, by the function that holds each."""
    return lines_by_owner(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "integers"))


def test_graphs_draw_integers_only_in_the_repair_loops():
    # a view's repair draws its positions by scalar calls in the row loop,
    # in the order the seeded views rest on, and a whole graph's rounds draw
    # one position per duplicate; a stray call elsewhere in graphs.py would
    # draw out of turn and shift every later draw
    source = (SRC / "graphs.py").read_text(encoding="utf-8")
    assert set(integers_calls(source)) == {"_repair_rows", "_swap_rounds"}
    caught = integers_calls("def f(rng):\n    return rng.integers(5, size=2)\n"
                            "class A:\n    def g(self):\n        self.rng.integers(3)\n"
                            "x = rng.integers(2)\n")
    assert caught == {"f": [2], "g": [5], "": [6]}


def pow_calls(source: str) -> dict[str, list[int]]:
    """Lines of .pow( calls, by the function that holds each."""
    return lines_by_owner(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "pow"))


def test_closed_form_decoder_makes_no_pow_call():
    # every step of the closed forms is a read of a field table; pow works
    # a power out on each call, so a pow in a step would redo per row what
    # a table holds (the oracle, find_error_locator, may call it)
    source = (SRC / "bch.py").read_text(encoding="utf-8")
    steps = {"_decode_syndromes", "_cubic_roots", "_locators_3", "_locators_4"}
    assert steps <= set(lines_by_owner(source, lambda node: isinstance(node, ast.FunctionDef)))
    assert not steps & set(pow_calls(source))
    caught = pow_calls("def _locators_4(f, s1):\n    return f.pow(s1, -1)\n"
                       "def g(f, x):\n    return f.mul(x, x) ** 2 + pow(x, 2)\n"
                       "class A:\n    def h(self):\n        self.field.pow(3, 2)\n")
    assert caught == {"_locators_4": [2], "h": [7]}


def where_calls(source: str) -> dict[str, list[int]]:
    """Lines of np.where( or numpy.where( calls, by the function that holds each."""
    return lines_by_owner(source, lambda node: (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "where" and ast.unparse(node.func.value) in ("np", "numpy")))


def test_peeling_round_makes_no_where_call():
    # np.where with a scalar fill costs about twice an in-place masked write
    # (np.copyto(..., where=), or a[mask] = -1 on an array the call owns),
    # and a round's time at these sizes is its count of numpy calls
    round_steps = {
        "codec.py": {"decode", "resolve_node", "_column_sums"},
        "bch.py": {"_decode_syndromes", "_cubic_roots", "_locators_3", "_locators_4"},
        "graphs.py": {"_items_at"},
    }
    for name, steps in round_steps.items():
        source = (SRC / name).read_text(encoding="utf-8")
        assert steps <= set(lines_by_owner(source, lambda node: isinstance(node, ast.FunctionDef)))
        assert not steps & set(where_calls(source)), name
    # both graph classes own an _items_at, and the owner is the method's name
    graphs_source = (SRC / "graphs.py").read_text(encoding="utf-8")
    assert len(lines_by_owner(graphs_source, lambda node: (
        isinstance(node, ast.FunctionDef) and node.name == "_items_at"))["_items_at"]) == 2
    caught = where_calls("def _items_at(self, g):\n    return np.where(g > 0, g, -1)\n"
                         "def f(x):\n    np.copyto(x, 0, where=x < 0)\n"
                         "    return numpy.where(x)\n")
    assert caught == {"_items_at": [2], "f": [5]}


def round_calls(source: str, name: str) -> dict[str, list[int]]:
    """Lines of calls to name, bare or as an attribute, by the function that
    holds each; for "any", only those over rows (axis 1, by keyword or
    position)."""
    def matches(node):
        if not (isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))):
            return False
        axes = node.args + [kw.value for kw in node.keywords if kw.arg == "axis"]
        return name != "any" or "1" in map(ast.unparse, axes)
    return lines_by_owner(source, matches)


def test_decode_resolves_every_group_in_one_call():
    # a count-0 slice resolves exactly when it is zero, which resolve_node
    # answers too, so decode sends every frontier group, count 0 included,
    # through its one resolve_node call and tests no slice for zero itself
    source = (SRC / "codec.py").read_text(encoding="utf-8")
    assert len(round_calls(source, "resolve_node")["decode"]) == 1
    assert "decode" not in round_calls(source, "any")
    sample = ("def decode(z, sig):\n    keep = ~z.any(axis=1)\n"
              "    return codec.resolve_node(z[keep], sig), resolve_node(z, sig)\n"
              "def f(z):\n    return z.any() | np.any(z, axis=0) | z.all(axis=1) | z.any(1)\n")
    assert round_calls(sample, "any") == {"decode": [2], "f": [5]}
    assert round_calls(sample, "resolve_node") == {"decode": [3, 3]}


def group_rules(source: str) -> dict[str, list[int]]:
    """Lines that look edge indices up in the layout, by the function that
    holds each: reads of an entry of the bucket table, and searchsorted
    against a starts, ends or bounds array."""
    def matches(node):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
            return node.value.attr == "_buckets"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "searchsorted":
            # np.searchsorted(a, v) searches a, a.searchsorted(v) searches a
            base = node.func.value
            searched = node.args[0] if ast.unparse(base) in ("np", "numpy") and node.args else base
            return re.search(r"starts|ends|bounds", ast.unparse(searched)) is not None
        return False
    return lines_by_owner(source, matches)


def test_graphs_split_edges_into_groups_in_one_place():
    # a graph and a view share one layout (_Groups) and one rule from an
    # edge index to its group, _split; the sampler's _Blocks computes its
    # dealt blocks by arithmetic instead, and nothing searches the bounds
    source = (SRC / "graphs.py").read_text(encoding="utf-8")
    assert set(group_rules(source)) == {"_split"}
    caught = group_rules("def f(self, e):\n    return np.searchsorted(self._starts, e)\n"
                         "def g(bounds, e):\n    return bounds[1:].searchsorted(e)\n"
                         "def h(self, e):\n    return self._buckets[e >> self._shift]\n"
                         "def k(self, e):\n    self._buckets = np.zeros(e)\n"
                         "    self._buckets.setflags(write=False)\n"
                         "    return self.items.searchsorted(e) + np.searchsorted(e, 1)\n")
    assert caught == {"f": [2], "g": [4], "h": [6]}


def group_shape_calls(source: str) -> dict[str, list[int]]:
    """Lines of group_shape( calls, bare or as an attribute, by the function
    that holds each."""
    return lines_by_owner(source, lambda node: (
        isinstance(node, ast.Call)
        and "group_shape" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))))


def test_one_place_derives_the_group_shape():
    # a design's (r_max, b, s) and m_total are derived once, by TrialConfig's
    # constructor; the budget search tries one M per field degree before it
    # has a design, and is the one other caller
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    found = {f"{path.name}:{owner}" for path in paths
             for owner in group_shape_calls(path.read_text(encoding="utf-8"))}
    assert found == {"codec.py:__post_init__", "simulate.py:groups_within_budget"}
    source = (SRC / "codec.py").read_text(encoding="utf-8")
    design = next(node for node in ast.parse(source).body
                  if isinstance(node, ast.ClassDef) and node.name == "TrialConfig")
    assert all(design.lineno <= line <= design.end_lineno
               for line in group_shape_calls(source)["__post_init__"])
    caught = group_shape_calls("def f(n):\n    return group_shape(n, 2, 3, 2)\n"
                               "def g(n):\n    _, b, _ = codec.group_shape(n, 2, 3, 2)\n"
                               "def h(group_shape):\n    return group_shape\n")
    assert caught == {"f": [2], "g": [4]}


def test_every_cached_field_table_is_counted():
    # the table tests count a field's bytes and attributes by this list, so
    # a table added to GF2m without being named there would go uncounted
    from functools import cached_property

    from qgt.gf2m import GF2m
    from test_gf2m import FIELD_TABLES

    cached = {name for name, value in vars(GF2m).items() if isinstance(value, cached_property)}
    assert cached == set(FIELD_TABLES) and len(FIELD_TABLES) == 11
