"""The package surface: every export keeps its contract, and no definition is idle.

The contract: an exported function called with values of the right Python
type returns a result or raises one of the errors in `errors.py`; never a bare
`ValueError`, `IndexError` or `TypeError`, and never `InvariantError`, which
marks a broken identity, not a bad input.  The values are drawn inside and
outside each function's domain.  The exported classes (the error types,
`Involution`, `Stripe`) and the `Partition` alias are data and take any value.
"""

import ast
import inspect
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import involution_harmonics
from involution_harmonics import errors
from involution_harmonics.involutions import Involution, involutions
from involution_harmonics.partitions import Stripe, partitions_of, stripe_inners
from involution_harmonics.stripes import positive_stripes, width_stripes
from involution_harmonics.tableaux import standard_tableaux

EXPORTED = [
    getattr(involution_harmonics, name)
    for name in involution_harmonics.__all__
    if inspect.isfunction(getattr(involution_harmonics, name))
]

ints = st.integers(-2, 9)
LOCI = [(n, a) for n in range(1, 9) for a in range(n % 2, n + 1, 2)]
# int tuples with zeros, negatives and rising parts allowed, and true partitions
int_tuples = st.lists(ints, max_size=4).map(tuple)
partitions = st.lists(st.integers(1, 5), max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True)))
shapes = st.one_of(int_tuples, partitions)
SMALL_STRIPES = [
    Stripe(outer, inner)
    for m in range(9)
    for outer in partitions_of(m)
    for inner in stripe_inners(outer)
]
# Stripes, plain (outer, inner) pairs of them, and tuples of one or three shapes
stripes = st.one_of(
    st.builds(Stripe, shapes, shapes),
    st.sampled_from(SMALL_STRIPES),
    st.sampled_from(SMALL_STRIPES).map(tuple),
    st.tuples(shapes, shapes),
    st.tuples(shapes),
    st.tuples(shapes, shapes, shapes),
)
SMALL_TABLEAUX = [t for m in range(7) for lam in partitions_of(m) for t in standard_tableaux(lam)]
# entries: ints, and floats and bools that order like them
entries = st.one_of(ints, st.floats(-2, 9), st.booleans())
tableaux = st.one_of(
    st.lists(int_tuples, max_size=4).map(tuple),
    st.lists(st.lists(entries, max_size=4).map(tuple), max_size=4).map(tuple),
    st.sampled_from(SMALL_TABLEAUX),
)
pairs = st.lists(st.tuples(ints, ints), max_size=4).map(tuple)
position_sets = st.one_of(
    st.frozensets(st.tuples(ints, ints), max_size=6),
    pairs.map(lambda ps: frozenset(c for i, j in ps for c in ((i, j), (j, i)))),
)
dense = st.integers(0, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.integers(0, 1), min_size=k, max_size=k), min_size=k, max_size=k
    )
)
symmetric_dense = dense.map(
    lambda m: [[int(i != j and (m[i][j] or m[j][i])) for j in range(len(m))] for i in range(len(m))]
)
INVOLUTIONS = [w for n, a in LOCI if n <= 6 for w in involutions(n, a)]


# argument sets inside the domains of the stripe maps, drawn half the time:
# the formula families' stripes with their loci, at the next degree too
IN_DOMAIN = {
    ("s", "n", "a", "d"): [
        {"s": s, "n": n, "a": a, "d": d + up}
        for n, a in LOCI
        for family in (positive_stripes(n, a), width_stripes(n, a))
        for s, d in family
        for up in (0, 1)
    ],
    ("p", "strip"): [
        {"p": p, "strip": s}
        for n, a in LOCI
        if n <= 5
        for s, _ in positive_stripes(n, a)
        for p in standard_tableaux(s.outer)
    ],
}

# parameter name -> strategy
STRATEGIES = {
    "n": ints,
    "a": ints,
    "d": ints,
    "s": stripes,
    "strip": stripes,
    "p": tableaux,
    "f": st.dictionaries(shapes, int_tuples, max_size=3),
    "matrix": st.one_of(position_sets, position_sets.map(set), dense, symmetric_dense),
    "w": st.one_of(st.builds(Involution, ints, pairs, int_tuples), st.sampled_from(INVOLUTIONS)),
    "pairs": pairs,
    "fixed": st.one_of(st.none(), int_tuples),
    "size_cap": st.one_of(st.none(), st.integers(-2, 7)),
}


def test_every_exported_name_resolves():
    assert len(involution_harmonics.__all__) == len(set(involution_harmonics.__all__))
    for name in involution_harmonics.__all__:
        assert hasattr(involution_harmonics, name), name


@pytest.mark.parametrize("fn", EXPORTED, ids=lambda fn: fn.__name__)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_exported_function_keeps_the_contract(fn, data):
    names = tuple(inspect.signature(fn).parameters)
    if names in IN_DOMAIN and data.draw(st.booleans(), label="in domain"):
        args = data.draw(st.sampled_from(IN_DOMAIN[names]), label="args")
    else:
        args = {name: data.draw(STRATEGIES[name], label=name) for name in names}
    try:
        fn(**args)
    except Exception as exc:
        assert type(exc).__module__ == errors.__name__, repr(exc)
        assert not isinstance(exc, errors.InvariantError), repr(exc)


def defined_names(node):
    """The module-level names a top-level statement defines: def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return set()
    return {sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)}


def resolved_references(tree, module):
    """(module, name) of every name a module's code uses, outside each name's own definition.

    An assignment's own targets are its definition, not a use.
    """
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    found = set()
    for node in tree.body:
        own = defined_names(node)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id not in own:
                found.add(imported.get(sub.id, (module, sub.id)))
            elif isinstance(sub, ast.Attribute):
                found.add((None, sub.attr))  # module.name: whichever module holds it
    return found


def test_every_definition_has_a_library_caller_or_is_exported():
    src = pathlib.Path(involution_harmonics.__file__).parent
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted(src.glob("*.py"))
        if path.name != "__init__.py"
    }
    exports = set(involution_harmonics.__all__)
    used = set()
    for module, tree in trees.items():
        used |= resolved_references(tree, module)
    idle = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for node in tree.body
        for name in sorted(defined_names(node))
        if name not in exports
        and (module, name) not in used
        and (None, name) not in used
    ]
    assert idle == []
