"""The payload layout of each space is read in one place, and each space is defined in one place.

Every space but ``SparseSeq`` keeps the dense layout, a tuple of ``dim``
values, so the walkers tell the two layouts apart by ``SparseSeq`` alone.  In
``spaces.py`` only the payload boundary (``Element.__init__`` and
``Element.payload``, where the line's one value becomes its 1-tuple and back)
and the element wire-format functions may dispatch on ``FinitePointwise`` or
``IdentityLine``, by a ``case`` pattern or an ``isinstance`` call; every
other function reaches the dense layout through a walker.  No other module tests a space's class at all
(an ``isinstance`` or ``issubclass`` call, a ``type(...)`` comparison or a
``case`` pattern naming one of the four), with no exception: each class is
the record of its own facts (wire name, cataloged truncation, sampler
layout, bands, fresh atom, decided facts), and the other modules read those.
No other module reads an element's layout (``.payload``, or the reduced
pairs in ``._v``): it reaches values through ``spaces`` primitives.
``sampling.py`` has at most one ``match`` on the space.  No module
reads the private internals of ``Fraction`` (``_numerator``,
``_denominator``, ``_normalize``, ``_from_coprime_ints``): they belong to one
CPython version, and ``_normalize`` is gone in 3.12.  ``cli.py`` imports no
decider, witness replay, law check or repro routine of the engine: a
scripted demonstration runs registered laws, it does not copy their bodies.  The rules are checked
on the source with the standard ``ast`` module.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "trunclat")

LAYOUT_NAMES = frozenset({"FinitePointwise", "IdentityLine"})
# qualified names: a method is ``Class.name``
LAYOUT_READERS = frozenset({
    "Element.__init__",
    "Element.payload",
    "element_to_json",
    "element_from_json",
})


SPACE_CLASS_NAMES = frozenset({"FinitePointwise", "SparseSeq", "LexPlane", "IdentityLine"})

LAYOUT_ATTRS = frozenset({"payload", "_v"})

FRACTION_PRIVATES = frozenset({"_numerator", "_denominator", "_normalize", "_from_coprime_ints"})

# what a registered law decides, replays or checks; a front end that imports one holds a second copy
LAW_BODY_NAMES = frozenset({
    "check_tau3",
    "archimedean_check",
    "unitization_archimedean",
    "multiples_below",
    "multiples_fixed",
    "decision_report",
    "check_thm33_sup",
    "check_remark34",
    "check_lemma54",
    "repro_c00_ruc",
    "repro_example43",
    "default_limit_candidates",
    "uniform_cauchy_prefix",
    "harmonic_prefix",
})


def _parse(module: str) -> ast.Module:
    with open(os.path.join(SRC, module), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _functions(node: ast.AST, prefix: str = ""):
    """``(qualified name, node)`` for each function under ``node``, nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def layout_dispatch(tree: ast.AST) -> list[str]:
    """``function:line`` for each layout dispatch outside the functions allowed to read layouts."""
    found = []
    for name, fn in _functions(tree):
        if name in LAYOUT_READERS:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.MatchClass):
                named = _names(node.cls)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = set().union(*(_names(arg) for arg in node.args[1:]))
            else:
                continue
            if named & LAYOUT_NAMES:
                found.append(f"{name}:{node.lineno}")
    return found


def _referenced(node: ast.AST) -> set[str]:
    """The names ``node`` refers to, bare or as an attribute (``spaces.SparseSeq``)."""
    return _names(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def space_class_tests(tree: ast.AST) -> list[str]:
    """``name:line`` for each class test that names a space class: an ``isinstance``
    or ``issubclass`` call, a comparison with ``type(...)``, or a ``case`` pattern."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.MatchClass):
            named = _referenced(node.cls)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            named = set().union(*(_referenced(arg) for arg in node.args[1:]))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if not any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "type" for n in sides):
                continue
            named = set().union(*(_referenced(n) for n in sides))
        else:
            continue
        found.update((node.lineno, name) for name in named & SPACE_CLASS_NAMES)
    return [f"{name}:{line}" for line, name in sorted(found)]


def space_matches(tree: ast.AST) -> list[int]:
    """Lines of the ``match`` statements whose subject is a space."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Match) and ast.unparse(node.subject).split(".")[-1] == "space"
    ]


def fraction_internals(tree: ast.AST) -> list[str]:
    """``name:line`` for each attribute or keyword argument named like a private ``Fraction`` internal."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FRACTION_PRIVATES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.keyword) and node.arg in FRACTION_PRIVATES:
            found.append((node.value.lineno, node.arg))
    return [f"{name}:{line}" for line, name in sorted(found)]


def layout_reads(tree: ast.AST) -> list[str]:
    """``name:line`` for each read of an attribute in ``LAYOUT_ATTRS``."""
    return [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_ATTRS
    ]


def law_body_imports(tree: ast.AST) -> list[str]:
    """``name:line`` for each import of a name in ``LAW_BODY_NAMES``."""
    return [
        f"{alias.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.split(".")[-1] in LAW_BODY_NAMES
    ]


def test_cli_imports_no_law_body():
    found = law_body_imports(_parse("cli.py"))
    assert not found, f"cli.py imports what a registered law already runs: {', '.join(found)}"


def test_detects_law_body_imports():
    tree = ast.parse(
        "from .engine import (\n"
        "    catalog,\n"
        "    multiples_below,\n"
        ")\n"
        "from .truncation import check_tau3 as decide, truncation_from_json\n"
        "import trunclat.engine.decision_report\n"
        "check_lemma54 = None\n"
    )
    assert law_body_imports(tree) == ["multiples_below:1", "check_tau3:5", "trunclat.engine.decision_report:6"]


def test_no_module_reads_fraction_internals():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
    assert "spaces.py" in modules
    found = [f"{module}:{hit}" for module in modules for hit in fraction_internals(_parse(module))]
    assert not found, f"private Fraction internals are read at {', '.join(found)}"


def test_detects_fraction_internals():
    tree = ast.parse(
        "def f(v):\n"
        "    n = v._numerator\n"
        "    return Fraction(n, v.denominator, _normalize=False)\n"
        "g = Fraction._from_coprime_ints\n"
        "numerator = 1\n"
    )
    assert fraction_internals(tree) == ["_numerator:2", "_normalize:3", "_from_coprime_ints:4"]


def test_only_spaces_reads_the_element_layout():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "spaces.py")
    assert "engine.py" in modules and "truncation.py" in modules
    found = [f"{module}:{hit}" for module in modules for hit in layout_reads(_parse(module))]
    assert not found, f"an element layout is read outside spaces.py at {', '.join(found)}"


def test_detects_layout_reads():
    tree = ast.parse(
        "def f(u, payload):\n"
        "    if u.payload[0] > 0:\n"
        "        return payload\n"
        "    return [n for n, d in u._v]\n"
    )
    assert layout_reads(tree) == ["payload:2", "_v:4"]


def test_only_the_boundary_and_the_wire_read_the_line_layout():
    found = layout_dispatch(_parse("spaces.py"))
    assert not found, f"spaces.py dispatches on a payload layout outside the walkers: {', '.join(found)}"


def test_no_module_but_spaces_tests_a_space_class():
    modules = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "spaces.py")
    assert {"cli.py", "engine.py", "sampling.py", "truncation.py", "unitization.py"} <= set(modules)
    found = [f"{module}:{hit}" for module in modules for hit in space_class_tests(_parse(module))]
    assert not found, f"a space class is tested outside spaces.py at {', '.join(found)}"


def test_detects_space_class_tests():
    tree = ast.parse(
        "def f(ctx, space):\n"
        "    if isinstance(ctx.space, (SparseSeq, spaces.LexPlane)):\n"
        "        return SparseSeq()\n"
        "    match space:\n"
        "        case FinitePointwise(dim=d): return d\n"
        "        case Element(): pass\n"
        "    if type(space) is IdentityLine or issubclass(type(space), SparseSeq):\n"
        "        return space.c00 and isinstance(space, int) and type(space) is int\n"
        "    return LexPlane == space\n"
    )
    assert space_class_tests(tree) == [
        "LexPlane:2", "SparseSeq:2", "FinitePointwise:5", "IdentityLine:7", "SparseSeq:7"
    ]


def test_sampling_draws_through_one_match():
    lines = space_matches(_parse("sampling.py"))
    assert len(lines) <= 1, f"sampling.py matches on the space more than once, at lines {lines}"


def test_detects_layout_dispatch():
    tree = ast.parse(
        "def element_to_json(a):\n"
        "    match a.space:\n"
        "        case FinitePointwise(): pass\n"
        "def add(a):\n"
        "    match a.space:\n"
        "        case SparseSeq() | IdentityLine(): pass\n"
        "def leq(a):\n"
        "    return isinstance(a.space, (LexPlane, FinitePointwise))\n"
        "def pos(a):\n"
        "    return isinstance(a.space, LexPlane)\n"
        "class Element:\n"
        "    def __init__(self, space):\n"
        "        self.line = isinstance(space, IdentityLine)\n"
        "    def __eq__(self, other):\n"
        "        return isinstance(other.space, IdentityLine)\n"
        "def __init__(space):\n"
        "    return isinstance(space, IdentityLine)\n"
    )
    assert layout_dispatch(tree) == ["add:6", "leq:8", "Element.__eq__:15", "__init__:17"]
    tree = ast.parse(
        "match self.space:\n    case _: pass\n"
        "match space:\n    case _: pass\n"
        "match kind:\n    case _: pass\n"
    )
    assert space_matches(tree) == [1, 3]
