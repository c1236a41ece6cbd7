from random import Random

import pytest

from univhopf.errors import InputError, PreconditionError
from univhopf.grading import universal_group_of_grading
from univhopf.grouppres import todd_coxeter_order
from univhopf.lio import (
    FiniteCategory,
    FunctorData,
    absolute_value,
    compare_by_absolute_value,
    identity_functor,
    lift_initial_object,
    locally_initial_objects,
    random_category,
    universal_object_of,
)

from helpers import (
    complex_norm_category,
    reflective_subchain_functor,
    split_quadratic,
    thin_chain_category,
    two_incomparable_lio_category,
)
from univhopf.grading import Grading


def test_poset_categories_are_all_locally_initial():
    for n in (1, 2, 4):
        cat = thin_chain_category(n)
        lio, edges = locally_initial_objects(cat)
        assert lio == list(range(n))
        assert all(edges[(a, b)] == (a <= b) for a in lio for b in lio)


def test_one_object_two_endomorphisms_has_no_lio():
    cat = FiniteCategory(
        1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    )
    assert locally_initial_objects(cat)[0] == []


def test_complex_norm_truncation_lio_is_nonnegative_reals():
    cat, objs = complex_norm_category()
    lio, _ = locally_initial_objects(cat)
    assert [objs[i] for i in lio] == [(0, 0), (1, 0), (2, 0)]


def test_complex_norm_absolute_values_are_moduli():
    cat, objs = complex_norm_category()
    index = {o: i for i, o in enumerate(objs)}
    assert absolute_value(cat, index[(0, 1)]) == index[(1, 0)]
    assert absolute_value(cat, index[(0, 2)]) == index[(2, 0)]
    assert absolute_value(cat, index[(-1, 0)]) == index[(1, 0)]
    # objects already locally initial are their own absolute value
    for o in ((0, 0), (1, 0), (2, 0)):
        assert absolute_value(cat, index[o]) == index[o]


def test_absolute_value_none_for_incomparable_lios():
    cat = two_incomparable_lio_category()
    assert locally_initial_objects(cat)[0] == [0, 1]
    assert absolute_value(cat, 2) is None


def test_compare_by_absolute_value_on_chain():
    cat = thin_chain_category(3)
    g = identity_functor(cat)
    assert compare_by_absolute_value(g, 1, 1) == "equivalent"
    assert compare_by_absolute_value(g, 0, 2) == "finer"
    assert compare_by_absolute_value(g, 2, 0) == "coarser"


def test_compare_disjoint_components_incomparable():
    # two isolated objects
    cat = FiniteCategory(2, (0, 1), (0, 1), (0, 1), {(0, 0): 0, (1, 1): 1})
    g = identity_functor(cat)
    assert compare_by_absolute_value(g, 0, 1) == "incomparable"


def test_arrow_between_objects_forces_domination():
    # an arrow y1 -> y2 with both absolute values defined makes y1 dominate
    rng = Random(17)
    for _ in range(40):
        cat = random_category(rng)
        g = identity_functor(cat)
        for y1 in range(cat.num_objects):
            for y2 in range(cat.num_objects):
                if not cat.hom(y1, y2):
                    continue
                if absolute_value(cat, y1) is None or absolute_value(cat, y2) is None:
                    continue
                assert compare_by_absolute_value(g, y1, y2) in ("finer", "equivalent")


def test_compare_undefined_when_absolute_value_missing():
    cat = two_incomparable_lio_category()
    g = identity_functor(cat)
    assert compare_by_absolute_value(g, 2, 0) == "undefined"


def test_lift_through_identity_functor():
    cat = thin_chain_category(3)
    g = identity_functor(cat)
    for x0 in range(3):
        assert lift_initial_object(g, x0) == x0


def test_lift_requires_locally_initial_base():
    cat = two_incomparable_lio_category()
    g = identity_functor(cat)
    with pytest.raises(PreconditionError):
        lift_initial_object(g, 2)


def test_lift_empty_subcategory_gives_none():
    # Y has a single object mapping to the top of the chain; no arrow from 0
    x = thin_chain_category(2)
    y = FiniteCategory(1, (0,), (0,), (0,), {(0, 0): 0})
    # object 0 of Y maps to object 1 of X; arrows from 1 reach only 1
    functor = FunctorData(y, x, (1,), (x.identity[1],))
    assert lift_initial_object(functor, 1) == 0
    # but a Y whose image is never reached from the base gives None
    x2 = FiniteCategory(2, (0, 1), (0, 1), (0, 1), {(0, 0): 0, (1, 1): 1})
    functor2 = FunctorData(y, x2, (1,), (x2.identity[1],))
    assert lift_initial_object(functor2, 0) is None


def test_lift_matches_left_adjoint():
    functor, left_adjoint_objects = reflective_subchain_functor()
    for x0 in range(3):
        assert lift_initial_object(functor, x0) == left_adjoint_objects[x0]


def test_lift_returns_preimage_when_hom_sets_biject():
    # the inclusion of the subchain is full on the relevant hom-sets at 0
    functor, _ = reflective_subchain_functor()
    assert lift_initial_object(functor, 0) == 0


def test_universal_object_through_subchain():
    functor, _ = reflective_subchain_functor()
    assert universal_object_of(functor, 0) == 0
    assert universal_object_of(functor, 1) == 1


def test_universal_object_requires_absolute_value():
    cat = two_incomparable_lio_category()
    g = identity_functor(cat)
    with pytest.raises(PreconditionError):
        universal_object_of(g, 2)


def _grading_category_fixture():
    """Small explicit encoding of group gradings of Q[x]/(x^2 - 1) mapping
    down to set gradings, as a functor between finite categories.

    Y objects: (group, degree of x) pairs with deg(x)^2 = e, plus the trivial
    gradings; X objects: the 2-label split grading and the 1-label trivial
    grading.  Morphisms are label maps with component inclusion.
    """
    # Y objects: 0 = (1, e), 1 = (Z2, split), 2 = (Z2, trivial),
    #            3 = (Z4, deg x = 2), 4 = (Z2xZ2, deg x = (1,0))
    # group homomorphisms phi: H1 -> H2 with phi(deg1 x) = deg2 x
    groups = {
        0: [0],            # trivial group, elements as ints
        1: [0, 1],         # Z2
        2: [0, 1],
        3: [0, 1, 2, 3],   # Z4
        4: [0, 1, 2, 3],   # Z2 x Z2 encoded 0..3
    }
    mul = {
        0: lambda a, b: 0,
        1: lambda a, b: (a + b) % 2,
        2: lambda a, b: (a + b) % 2,
        3: lambda a, b: (a + b) % 4,
        4: lambda a, b: (a ^ b),
    }
    degx = {0: 0, 1: 1, 2: 0, 3: 2, 4: 1}
    objects = list(groups)

    def homs(h1, h2):
        out = []
        els1, els2 = groups[h1], groups[h2]
        for images in _all_maps(els1, els2):
            if images[0] != 0:
                continue
            if any(
                images[mul[h1](a, b)] != mul[h2](images[a], images[b])
                for a in els1
                for b in els1
            ):
                continue
            if images[degx[h1]] != degx[h2]:
                continue
            out.append(tuple(images))
        return out

    def _all_maps(src, dst):
        from itertools import product as iproduct

        for vals in iproduct(dst, repeat=len(src)):
            yield list(vals)

    morphs = []
    for a in objects:
        for b in objects:
            for phi in homs(a, b):
                morphs.append((a, b, phi))
    idx = {m: i for i, m in enumerate(morphs)}
    dom = tuple(m[0] for m in morphs)
    cod = tuple(m[1] for m in morphs)
    identity = tuple(
        idx[(o, o, tuple(groups[o]))] for o in objects
    )
    comp = {}
    for gi, (ga, gb, gphi) in enumerate(morphs):
        for fi, (fa, fb, fphi) in enumerate(morphs):
            if fb != ga:
                continue
            comp[(gi, fi)] = idx[(fa, gb, tuple(gphi[x] for x in fphi))]
    y = FiniteCategory(len(objects), dom, cod, identity, comp)

    # X: set gradings: 0 = split on {t0, t1}, 1 = trivial on {t}
    # maps with component inclusion: split -> trivial (collapse), identities
    x_morphs = [(0, 0, (0, 1)), (1, 1, (0,)), (0, 1, (0, 0))]
    xidx = {m: i for i, m in enumerate(x_morphs)}
    xcomp = {}
    for gi, (ga, gb, gphi) in enumerate(x_morphs):
        for fi, (fa, fb, fphi) in enumerate(x_morphs):
            if fb != ga:
                continue
            xcomp[(gi, fi)] = xidx[(fa, gb, tuple(gphi[t] for t in fphi))]
    x = FiniteCategory(
        2,
        tuple(m[0] for m in x_morphs),
        tuple(m[1] for m in x_morphs),
        (xidx[(0, 0, (0, 1))], xidx[(1, 1, (0,))]),
        xcomp,
    )

    # G: forget the group; gradings with deg x != e map to the split grading
    object_map = tuple(0 if degx[o] != 0 else 1 for o in objects)
    morphism_map = []
    for a, b, phi in morphs:
        xa, xb = object_map[a], object_map[b]
        if xa == 0 and xb == 0:
            morphism_map.append(xidx[(0, 0, (0, 1))])
        elif xa == 1 and xb == 1:
            morphism_map.append(xidx[(1, 1, (0,))])
        else:
            morphism_map.append(xidx[(0, 1, (0, 0))])
    return FunctorData(y, x, object_map, tuple(morphism_map))


def test_universal_object_matches_universal_group_of_grading():
    functor = _grading_category_fixture()
    # the universal object of the Z2-split grading is the Z2-graded object
    y0 = universal_object_of(functor, 1)
    assert y0 == 1
    # cross-module oracle: the universal group of the same grading data has
    # order 2, the order of the group carried by the lifted object
    split = Grading(split_quadratic(), ("0", "1"), (0, 1))
    pres, _ = universal_group_of_grading(split)
    assert todd_coxeter_order(pres) == 2


def test_initial_objects_unique_up_to_isomorphism():
    functor, _ = reflective_subchain_functor()
    for x0 in range(3):
        y0 = lift_initial_object(functor, x0)
        # any other object with exactly one arrow to everything reachable
        # must be isomorphic to y0
        x = functor.target
        members = [
            y
            for y in range(functor.source.num_objects)
            if x.hom(x0, functor.object_map[y])
        ]
        for y in members:
            if all(len(functor.source.hom(y, z)) == 1 for z in members):
                assert functor.source.hom(y, y0) and functor.source.hom(y0, y)


def test_random_categories_satisfy_lio_laws():
    rng = Random(99)
    for _ in range(60):
        cat = random_category(rng)
        lio, edges = locally_initial_objects(cat)
        for x in range(cat.num_objects):
            a = absolute_value(cat, x)
            if a is not None:
                assert a in lio
        for x0 in lio:
            a = absolute_value(cat, x0)
            assert a is not None
            assert cat.hom(a, x0) and cat.hom(x0, a)
        g = identity_functor(cat)
        # the comparison criterion agrees with the direct definition
        for y1 in range(cat.num_objects):
            for y2 in range(cat.num_objects):
                a1 = absolute_value(cat, y1)
                a2 = absolute_value(cat, y2)
                got = compare_by_absolute_value(g, y1, y2)
                if a1 is None or a2 is None:
                    assert got == "undefined"
                    continue
                ge = bool(cat.hom(a1, a2))
                le = bool(cat.hom(a2, a1))
                want = (
                    "equivalent"
                    if ge and le
                    else "finer" if ge else "coarser" if le else "incomparable"
                )
                assert got == want
        # lifting through the identity agrees with the exhaustive search
        for x0 in lio:
            members = [y for y in range(cat.num_objects) if cat.hom(x0, y)]
            direct = None
            for y in members:
                if all(len(cat.hom(y, z)) == 1 for z in members):
                    direct = y
                    break
            assert lift_initial_object(g, x0) == direct


# ---------------------------------------------------------------------------
# validation messages, pinned on small hand-built bad inputs

# the chain 0 -> 1: morphism 0 = id_0, 1 = the arrow 0 -> 1, 2 = id_1
CHAIN2 = (2, (0, 0, 1), (0, 1, 1), (0, 2), {(0, 0): 0, (1, 0): 1, (2, 1): 1, (2, 2): 2})
# one object with the identity 0 and two more endomorphisms 1, 2
ONE_OBJECT = (1, (0, 0, 0), (0, 0, 0), (0,))
ONE_OBJECT_UNITS = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2}


def _chain2(compose_changes=(), drop=(), **fields):
    n, dom, cod, identity, compose = CHAIN2
    compose = {k: v for k, v in compose.items() if k not in drop}
    compose.update(compose_changes)
    args = {"num_objects": n, "dom": dom, "cod": cod, "identity": identity}
    args.update(fields)
    return lambda: FiniteCategory(compose=compose, **args)


def _one_object(products):
    compose = dict(ONE_OBJECT_UNITS)
    compose.update(products)
    return lambda: FiniteCategory(*ONE_OBJECT, compose)


CATEGORY_ERRORS = [
    ("shapes", _chain2(cod=(0, 1)), InputError, "morphism data shapes do not match"),
    ("endpoint", _chain2(dom=(0, 5, 1)), InputError, "morphism endpoint out of range"),
    ("negative endpoint", _chain2(cod=(0, -1, 1)), InputError,
     "morphism endpoint out of range"),
    ("identity not endo", _chain2(identity=(1, 2)), InputError,
     "identity of object 0 is not an endomorphism"),
    ("identity out of range", _chain2(identity=(0, 9)), InputError,
     "identity of object 1 is not an endomorphism"),
    ("missing composite", _chain2(drop={(2, 1)}), InputError,
     "composition of 2 after 1 defined iff composable"),
    ("defined non-composable", _chain2({(1, 2): 1}), InputError,
     "composition of 1 after 2 defined iff composable"),
    # two faults: the first in row-major (g, f) order is named
    ("extra before missing", _chain2({(0, 2): 0}, drop={(2, 1)}), InputError,
     "composition of 0 after 2 defined iff composable"),
    ("missing before extra", _chain2({(2, 0): 2}, drop={(1, 0)}), InputError,
     "composition of 1 after 0 defined iff composable"),
    ("wrong-type composite", _chain2({(1, 0): 2}), InputError,
     "composite of (1, 0) has wrong type"),
    ("composite out of range", _chain2({(2, 2): 7}), InputError,
     "composite of (2, 2) has wrong type"),
    ("wrong type before extra", _chain2({(1, 0): 0, (2, 0): 2}), InputError,
     "composite of (1, 0) has wrong type"),
    ("extra before wrong type", _chain2({(0, 2): 0, (2, 1): 2}), InputError,
     "composition of 0 after 2 defined iff composable"),
    # entries naming a morphism out of range are reported after every other
    # fault of the composition table, in the order they were given
    ("entry out of range", _chain2({(7, 0): 0}), InputError,
     "composition of 7 after 0 names a morphism out of range"),
    ("first entry out of range", _chain2({(0, 3): 0, (-1, 0): 0}), InputError,
     "composition of 0 after 3 names a morphism out of range"),
    ("extra before out of range", _chain2({(7, 0): 0, (2, 0): 2}), InputError,
     "composition of 2 after 0 defined iff composable"),
    ("right identity", _one_object({(1, 0): 0, (1, 1): 1, (1, 2): 2, (2, 1): 2,
                                    (2, 2): 2}),
     PreconditionError, "right identity law fails"),
    ("left identity", _one_object({(0, 1): 0, (1, 1): 1, (1, 2): 2, (2, 1): 2,
                                   (2, 2): 2}),
     PreconditionError, "left identity law fails"),
    ("not associative", _one_object({(1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 0}),
     PreconditionError, "composition is not associative"),
]


def _idempotent():
    """One object; 0 = identity, 1 = e with e e = e."""
    return FiniteCategory(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1})


def _involution():
    """One object; 0 = identity, 1 = s with s s = identity."""
    return FiniteCategory(1, (0, 0), (0, 0), (0,), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})


def _chain2_functor(object_map, morphism_map):
    chain = _chain2()
    return lambda: FunctorData(chain(), chain(), object_map, morphism_map)


FUNCTOR_ERRORS = [
    ("object map", _chain2_functor((0,), (0, 1, 2)), InputError, "object map is not total"),
    ("morphism map", _chain2_functor((0, 1), (0, 1)), InputError,
     "morphism map is not total"),
    ("object image", _chain2_functor((0, 5), (0, 1, 2)), InputError,
     "object image out of range"),
    ("morphism image", _chain2_functor((0, 1), (0, 1, 9)), InputError,
     "morphism image out of range"),
    ("typing", _chain2_functor((0, 1), (0, 2, 2)), InputError,
     "functor breaks the typing of morphism 1"),
    ("identities", lambda: FunctorData(_idempotent(), _idempotent(), (0,), (1, 1)),
     PreconditionError, "functor does not preserve identities"),
    ("composition", lambda: FunctorData(_idempotent(), _involution(), (0,), (0, 1)),
     PreconditionError, "functor does not preserve composition"),
]


@pytest.mark.parametrize(
    "build, error, message",
    [case[1:] for case in CATEGORY_ERRORS + FUNCTOR_ERRORS],
    ids=[case[0] for case in CATEGORY_ERRORS + FUNCTOR_ERRORS],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_caller_changes_to_compose_do_not_reach_the_category():
    base = thin_chain_category(3)
    compose = dict(base.compose)
    cat = FiniteCategory(3, base.dom, base.cod, base.identity, compose)
    before = (
        dict(cat.compose),
        locally_initial_objects(cat),
        [absolute_value(cat, x) for x in range(3)],
    )
    compose[(5, 1)] = 0  # a wrong-type composite
    compose[(9, 9)] = 0  # morphisms out of range
    del compose[(0, 0)]
    after = (
        dict(cat.compose),
        locally_initial_objects(cat),
        [absolute_value(cat, x) for x in range(3)],
    )
    assert after == before


def test_compose_of_a_category_is_read_only():
    cat = thin_chain_category(2)
    with pytest.raises(TypeError):
        cat.compose[(2, 1)] = 2
    with pytest.raises(TypeError):
        cat.compose[(9, 9)] = 0
    assert locally_initial_objects(cat) == locally_initial_objects(thin_chain_category(2))
