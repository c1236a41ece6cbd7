"""Set-based universal objects: the universal coacting quotient of a monoid
along a labelling and its group completion, and the measuring/acting sides
cut out of explicit map sets.  The quotient, the monoid read from a magma and
the composition table are the ones of ``signature`` and ``finmonoid``."""

from .errors import InputError, PreconditionError
from .finmonoid import grothendieck_group, monoid_from_rows, monoid_of_magma
from .grouppres import GroupPresentation
from .signature import (
    DEFAULT_ENUM_CAP,
    FinSetMagma,
    composition_table,
    enumerate_set_homs,
    is_set_homomorphism,
    omega_automorphisms,
    omega_congruence_closure,
    quotient_magma,
)


class SetComodFrame:
    """A monoid-like magma together with a labelling map psi: A -> U, U the
    labels 0..num_labels-1; the coaction it frames is a |-> (a, psi(a))."""

    def __init__(self, magma: FinSetMagma, psi, num_labels: int):
        if any(not 0 <= x < num_labels for x in psi):
            raise InputError("label out of range")
        if len(psi) != magma.size:
            raise InputError("labelling is not total on the carrier")
        self.magma = magma
        self.psi = tuple(psi)
        self.num_labels = num_labels
        monoid_of_magma(magma)  # validates the precondition


def universal_coacting_sets(frame: SetComodFrame):
    """Quotient by the operation-respecting closure of the kernel of psi.

    Returns (quotient magma, projection).  The projection composed with any
    further collapse identifying the kernel pairs factors through uniquely.
    """
    magma = frame.magma
    kernel_pairs = [
        (a, b)
        for a in range(magma.size)
        for b in range(a + 1, magma.size)
        if frame.psi[a] == frame.psi[b]
    ]
    class_of = omega_congruence_closure(magma, kernel_pairs)
    return quotient_magma(magma, class_of), class_of


def universal_coacting_group_sets(frame: SetComodFrame) -> GroupPresentation:
    """Group completion of the universal coacting quotient."""
    quotient, _ = universal_coacting_sets(frame)
    return grothendieck_group(monoid_of_magma(quotient))


def universal_measuring_comonoid_sets(
    a: FinSetMagma, b: FinSetMagma, maps="all", cap: int = DEFAULT_ENUM_CAP
):
    """The members of the given map set that are operation-preserving.

    With maps="all" this is the hom set of enumerate_set_homs, under the same
    up-front cap on b.size ** a.size candidate maps.
    """
    if maps == "all":
        return enumerate_set_homs(a, b, cap)
    candidates = [tuple(f) for f in maps]
    for f in candidates:
        if len(f) != a.size or any(not 0 <= x < b.size for x in f):
            raise InputError(f"map {f} is not a map between the carriers")
    return [f for f in candidates if is_set_homomorphism(f, a, b)]


def universal_acting_group_sets(
    a: FinSetMagma, maps="all", cap: int = DEFAULT_ENUM_CAP
):
    """Invertible-in-V operation-preserving self-maps, with composition table.

    V must contain the identity and be closed under composition.  Returns
    (members, group) where group is a FinMonoid on the member list and
    members[i] is the underlying map of element i, the identity first.  With
    maps="all" (every self-map) the members are omega_automorphisms(a), under
    its up-front cap on the a.size! permutations searched.
    """
    if maps == "all":
        members, table = omega_automorphisms(a, cap)
        return members, monoid_from_rows(table, 0)
    ident = tuple(range(a.size))
    v = [tuple(f) for f in maps]
    for f in v:
        if len(f) != a.size or any(not 0 <= x < a.size for x in f):
            raise InputError(f"map {f} is not a self-map of the carrier")
    vset = set(v)
    if ident not in vset:
        raise PreconditionError("the map set does not contain the identity")
    for f in v:
        for g in v:
            if tuple(f[x] for x in g) not in vset:
                raise PreconditionError("the map set is not closed under composition")
    # f is invertible in V iff it is a bijection whose inverse (the points
    # sorted by their image) lies in V; the identity, the least permutation,
    # sorts first
    members = sorted(
        f
        for f in v
        if len(set(f)) == a.size
        and tuple(sorted(range(a.size), key=f.__getitem__)) in vset
        and is_set_homomorphism(f, a, a)
    )
    return members, monoid_from_rows(composition_table(members), 0)


def sets_support_of_map(psi, u_size: int):
    """Second-projection image: the labels actually hit, with the
    corestriction of the labelling onto them."""
    used = sorted(set(psi))
    if any(not 0 <= x < u_size for x in psi):
        raise InputError("label out of range")
    pos = {x: i for i, x in enumerate(used)}
    return used, tuple(pos[x] for x in psi)


def is_tensor_epimorphism_sets(psi, u_size: int) -> bool:
    """A pair-valued coaction is a tensor epimorphism iff the labelling is onto."""
    return set(psi) == set(range(u_size))
