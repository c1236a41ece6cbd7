"""Differential tests: the indexed lio engine against the scanning engine in
oracles.py, on random categories from lio.random_category, their identity
functors and inclusions of random full subcategories, and on randomly
damaged category and functor data."""

from random import Random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from univhopf.errors import InputError, PreconditionError
from univhopf.lio import (
    FiniteCategory,
    FunctorData,
    absolute_value,
    identity_functor,
    lift_initial_object,
    locally_initial_objects,
    random_category,
    universal_object_of,
)

from helpers import full_subcategory_inclusion
from oracles import (
    scan_absolute_value,
    scan_hom,
    scan_lift_initial_object,
    scan_locally_initial_objects,
    scan_universal_object_of,
    scan_validate_category,
    scan_validate_functor,
)


@st.composite
def categories(draw):
    """A random_category with its objects and morphisms renumbered at random,
    so that id order says nothing about the shape."""
    seed = draw(st.integers(0, 2**32 - 1))
    cat = random_category(Random(seed), max_objects=draw(st.integers(1, 6)))
    n, m = cat.num_objects, cat.num_morphisms
    obj = draw(st.permutations(range(n)))  # old id -> new id
    mor = draw(st.permutations(range(m)))
    old_obj = sorted(range(n), key=obj.__getitem__)  # new id -> old id
    old_mor = sorted(range(m), key=mor.__getitem__)
    return FiniteCategory(
        n,
        tuple(obj[cat.dom[f]] for f in old_mor),
        tuple(obj[cat.cod[f]] for f in old_mor),
        tuple(mor[cat.identity[x]] for x in old_obj),
        {(mor[g], mor[f]): mor[h] for (g, f), h in cat.compose.items()},
    )


@st.composite
def functors(draw):
    cat = draw(categories())
    if draw(st.booleans()):
        return identity_functor(cat)
    objects = draw(st.sets(st.integers(0, cat.num_objects - 1)))
    return full_subcategory_inclusion(cat, objects)


def outcome(call, *args):
    """The value of call(*args), or the type and message of what it raised."""
    try:
        return call(*args)
    except (InputError, PreconditionError) as exc:
        return type(exc), str(exc)


def rejection(call, *args):
    """The type and message of what call(*args) raised, or None."""
    try:
        call(*args)
    except (InputError, PreconditionError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=200, deadline=None)
@given(categories())
def test_hom_and_locally_initial_objects_match_scans(cat):
    n = cat.num_objects
    for x in range(n):
        for y in range(n):
            assert cat.hom(x, y) == scan_hom(cat, x, y)
    assert locally_initial_objects(cat) == scan_locally_initial_objects(cat)
    for x in range(n):
        assert absolute_value(cat, x) == scan_absolute_value(cat, x)


def test_returned_values_do_not_corrupt_the_cache():
    cat = random_category(Random(5))
    lio, edges = locally_initial_objects(cat)
    want = (list(lio), dict(edges))
    lio.append(99)
    edges.clear()
    hom = cat.hom(0, 0)
    hom.append(99)
    assert locally_initial_objects(cat) == want
    assert cat.hom(0, 0) == scan_hom(cat, 0, 0)


@settings(max_examples=200, deadline=None)
@given(functors())
def test_lift_and_universal_object_match_scans(functor):
    x = functor.target
    lio, _ = scan_locally_initial_objects(x)
    for x0 in range(x.num_objects):
        got = outcome(lift_initial_object, functor, x0)
        if x0 in lio:
            assert got == scan_lift_initial_object(functor, x0)
        else:
            assert got == (PreconditionError, f"object {x0} is not locally initial")
    for y in range(functor.source.num_objects):
        got = outcome(universal_object_of, functor, y)
        if scan_absolute_value(x, functor.object_map[y]) is None:
            assert got == (
                PreconditionError,
                f"object {y} has no absolute value under the functor",
            )
        else:
            assert got == scan_universal_object_of(functor, y)


def _parallel(cat, f):
    """The morphisms other than f with the type of f."""
    return [p for p in scan_hom(cat, cat.dom[f], cat.cod[f]) if p != f]


KINDS = ("drop", "add", "parallel", "any", "identity", "endpoint")


def _damage_category(draw, cat):
    """Up to three random faults: a composite dropped, added, or moved to a
    parallel or arbitrary morphism, an identity or an endpoint changed."""
    n, m = cat.num_objects, cat.num_morphisms
    dom, cod, identity = list(cat.dom), list(cat.cod), list(cat.identity)
    compose = dict(cat.compose)
    morphism = st.integers(0, m - 1)
    anything = st.integers(-1, m)
    movable = sorted(k for k, h in compose.items() if _parallel(cat, h))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(KINDS))
        if kind == "drop" and compose:
            del compose[draw(st.sampled_from(sorted(compose)))]
        elif kind == "add":
            compose[(draw(morphism), draw(morphism))] = draw(anything)
        elif kind == "parallel" and movable:
            key = draw(st.sampled_from(movable))
            compose[key] = draw(st.sampled_from(_parallel(cat, cat.compose[key])))
        elif kind == "any":
            compose[draw(st.sampled_from(sorted(cat.compose)))] = draw(anything)
        elif kind == "identity":
            x = draw(st.integers(0, n - 1))
            parallel = _parallel(cat, cat.identity[x]) or [-1]
            identity[x] = draw(st.sampled_from(parallel) | anything)
        elif kind == "endpoint":
            ends = draw(st.sampled_from((dom, cod)))
            ends[draw(morphism)] = draw(st.integers(-1, n))
    return n, tuple(dom), tuple(cod), tuple(identity), compose


@settings(max_examples=400, deadline=None)
@given(st.data(), categories())
def test_category_validation_matches_scan(data, cat):
    args = _damage_category(data.draw, cat)
    assert rejection(FiniteCategory, *args) == rejection(scan_validate_category, *args)


@settings(max_examples=300, deadline=None)
@given(st.data(), categories())
def test_one_moved_composite_is_judged_as_the_scan_judges_it(data, cat):
    """One composite of two morphisms other than identities moved to a
    parallel morphism: every type and identity law holds, so associativity
    decides."""
    ids = set(cat.identity)
    movable = sorted((g, f) for (g, f), h in cat.compose.items()
                     if g not in ids and f not in ids and _parallel(cat, h))
    assume(movable)
    key = data.draw(st.sampled_from(movable))
    compose = dict(cat.compose)
    compose[key] = data.draw(st.sampled_from(_parallel(cat, compose[key])))
    args = (cat.num_objects, cat.dom, cat.cod, cat.identity, compose)
    assert rejection(FiniteCategory, *args) == rejection(scan_validate_category, *args)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 4))
def test_one_object_validation_matches_scan(data, m):
    """Random products on one object with morphism 0 as its identity; most
    tables break associativity or an identity law."""
    element = st.integers(0, m - 1)
    compose = {(g, f): g if f == 0 else f if g == 0 else data.draw(element)
               for g in range(m) for f in range(m)}
    if data.draw(st.booleans()):
        compose[(data.draw(element), data.draw(element))] = data.draw(element)
    args = (1, (0,) * m, (0,) * m, (0,), compose)
    assert rejection(FiniteCategory, *args) == rejection(scan_validate_category, *args)


@settings(max_examples=200, deadline=None)
@given(st.data(), functors())
def test_functor_validation_matches_scan(data, functor):
    y, x = functor.source, functor.target
    object_map, morphism_map = list(functor.object_map), list(functor.morphism_map)
    if y.num_objects and data.draw(st.booleans()):
        object_map[data.draw(st.integers(0, y.num_objects - 1))] = data.draw(
            st.integers(-1, x.num_objects)
        )
    if y.num_morphisms:
        f = data.draw(st.integers(0, y.num_morphisms - 1))
        parallel = _parallel(x, morphism_map[f]) or [morphism_map[f]]
        morphism_map[f] = data.draw(
            st.sampled_from(parallel) | st.integers(-1, x.num_morphisms)
        )
    if data.draw(st.booleans()):
        del (object_map, morphism_map)[data.draw(st.integers(0, 1))][-1:]
    args = (y, x, tuple(object_map), tuple(morphism_map))
    assert rejection(FunctorData, *args) == rejection(scan_validate_functor, *args)
