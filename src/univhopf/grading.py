"""Set and group gradings of operation-equipped rational algebras: validity,
supports, and the universal group of a grading.

A grading assigns one label per basis vector.  It is valid when, for every
operation and every tuple of input labels, all basis tensors hit by nonzero
structure coefficients out of those components carry one and the same tuple
of output labels, and, with a group attached, the components obey the group
law.  ``Grading`` checks this once, at construction, so every function here
reads a valid grading.  The universal group is presented on the support
labels with one relator h s t^-1 for every nonzero component product landing
in component t, under every binary operation; the presentation is meaningful
exactly when the set grading is realizable by a group grading, which this
module does not attempt to decide.
"""

from dataclasses import dataclass

from .errors import InputError, PreconditionError
from .finmonoid import FinMonoid, is_group
from .grouppres import (
    DEFAULT_COSET_LIMIT,
    DEFAULT_TIETZE_EFFORT,
    abelian_invariants,
    presentation,
    tietze_simplify,
    todd_coxeter_order,
)
from .signature import FinVectMagma


@dataclass(frozen=True, eq=False)
class Grading:
    algebra: FinVectMagma
    labels: tuple[str, ...]
    assignment: tuple[int, ...]  # basis index -> position in labels
    group: FinMonoid | None = None
    label_elems: tuple[int, ...] | None = None  # label position -> group element

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InputError("labels are not distinct")
        if len(self.assignment) != self.algebra.dim:
            raise InputError("assignment length does not match the dimension")
        if any(not 0 <= a < len(self.labels) for a in self.assignment):
            raise InputError("assignment refers to a missing label")
        if (self.group is None) != (self.label_elems is None):
            raise InputError("group and label element map must come together")
        if self.group is not None:
            if not is_group(self.group):
                raise PreconditionError("attached label monoid is not a group")
            if len(self.label_elems) != len(self.labels):
                raise InputError("label element map length does not match")
            if any(not 0 <= g < self.group.size for g in self.label_elems):
                raise InputError("label element out of range")
        ok, witness = validate_grading(self)
        if not ok:
            raise PreconditionError(f"invalid grading: {witness}")

    def label_of_basis(self, i: int) -> str:
        return self.labels[self.assignment[i]]


def validate_grading(grading: Grading):
    """Component-closure check; returns (ok, witness or None).  ``Grading``
    runs it at construction and raises on a witness.

    A witness names the operation, the offending input label tuple and the
    two distinct output label tuples (or the group-law violation).
    """
    alg = grading.algebra
    assign = grading.assignment
    for name, s, t in alg.signature.ops:
        out_labels_by_input: dict = {}
        for out, inp in sorted(alg.tensors[name]):
            in_labels = tuple(map(assign.__getitem__, inp))
            out_labels = tuple(map(assign.__getitem__, out))
            prev = out_labels_by_input.setdefault(in_labels, out_labels)
            if prev != out_labels:
                return False, {
                    "op": name,
                    "input_labels": tuple(grading.labels[x] for x in in_labels),
                    "outputs": (
                        tuple(grading.labels[x] for x in prev),
                        tuple(grading.labels[x] for x in out_labels),
                    ),
                }
        if grading.group is not None:
            elems = grading.label_elems
            for in_labels, out_labels in out_labels_by_input.items():
                if (s, t) == (2, 1):
                    expect = grading.group.mul(elems[in_labels[0]], elems[in_labels[1]])
                    if elems[out_labels[0]] != expect:
                        return False, {
                            "op": name,
                            "input_labels": tuple(grading.labels[x] for x in in_labels),
                            "group_law": "product lands outside the product component",
                        }
                elif (s, t) == (0, 1):
                    if elems[out_labels[0]] != grading.group.unit:
                        return False, {
                            "op": name,
                            "group_law": "unit lands outside the neutral component",
                        }
    return True, None


def grading_support(grading: Grading) -> tuple[str, ...]:
    """Labels actually carrying a basis vector, in label order."""
    used = set(grading.assignment)
    return tuple(l for pos, l in enumerate(grading.labels) if pos in used)


def _component_products(grading: Grading):
    """Sorted (h, s, t) label positions with A^(h) A^(s) <= A^(t), over every
    binary operation."""
    assign = grading.assignment
    return sorted({
        (assign[inp[0]], assign[inp[1]], assign[out[0]])
        for name, s, t in grading.algebra.signature.ops
        if (s, t) == (2, 1)
        for out, inp in grading.algebra.tensors[name]
    })


def universal_group_of_grading(grading: Grading):
    """Presentation of the universal group on the support labels.

    One relator h s t^-1 per nonzero component product A^(h) A^(s) <= A^(t)
    of any binary operation; relators are freely reduced, no Tietze
    simplification is applied.  Returns (presentation, {label: generator
    index}).
    """
    supp = grading_support(grading)
    gen_of_label = {l: i for i, l in enumerate(supp)}
    gen_of_pos = {pos: gen_of_label.get(l) for pos, l in enumerate(grading.labels)}
    relators = [
        (gen_of_pos[h] + 1, gen_of_pos[s] + 1, -(gen_of_pos[t] + 1))
        for h, s, t in _component_products(grading)
    ]
    return presentation(len(supp), relators, gen_labels=supp), gen_of_label


def equivalent(
    g1: Grading,
    g2: Grading,
    effort: int = DEFAULT_TIETZE_EFFORT,
    coset_limit: int = DEFAULT_COSET_LIMIT,
) -> str:
    """Verdict 'yes' / 'no' / 'unknown' on equivalence of universal groups.

    'yes' when the Tietze-simplified presentations coincide literally; 'no'
    when the abelian invariants differ or both coset enumerations close on
    different orders; group isomorphism is not decided in general.
    """
    p1, _ = universal_group_of_grading(g1)
    p2, _ = universal_group_of_grading(g2)
    s1, _ = tietze_simplify(p1, effort)
    s2, _ = tietze_simplify(p2, effort)
    if s1.num_gens == s2.num_gens and sorted(s1.relators) == sorted(s2.relators):
        return "yes"
    inv1, inv2 = abelian_invariants(s1), abelian_invariants(s2)
    if inv1 != inv2:
        return "no"
    if 0 in inv1:
        return "unknown"  # both infinite: no coset enumeration closes
    o1 = todd_coxeter_order(s1, coset_limit)
    o2 = todd_coxeter_order(s2, coset_limit)
    if o1 is not None and o2 is not None and o1 != o2:
        return "no"
    return "unknown"
