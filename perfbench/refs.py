"""Independent references the benchmark checks the program's outputs against.

Nothing here imports the code under test: each value follows from the
mathematics of the generated input family.
"""

from fractions import Fraction
from math import gcd


def euler_phi(n):
    """|Aut(Z/n)|: the number of units modulo n."""
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def abelian_invariants_of_cyclic_product(orders):
    """Invariant factors (each dividing the next, 1s dropped) of a product of
    cyclic groups Z/n_1 x ... x Z/n_r, via prime-power elementary divisors."""
    powers = {}
    for n in orders:
        p = 2
        while n > 1:
            e = 1
            while n % p == 0:
                n //= p
                e *= p
            if e > 1:
                powers.setdefault(p, []).append(e)
            p += 1
    width = max((len(v) for v in powers.values()), default=0)
    factors = [1] * width
    for ps in powers.values():
        for i, e in enumerate(sorted(ps, reverse=True)):
            factors[width - 1 - i] *= e
    return [f for f in factors if f != 1]


def group_algebra_word_counts(order, bound):
    """Normal-word counts of the Manin end of Q[G] graded by G, degrees 0..bound.

    Every component is a line, so the Manin end is Q[G] again on generators
    u_g with u_g u_h = u_gh and u_e = 1: one empty word, |G| - 1 letters, and
    every longer word reduces.
    """
    return [1, order - 1] + [0] * (bound - 1)


def truncated_poly_word_counts(k, bound):
    """Normal-word counts of the Manin end of Q[x]/(x^k) graded by degree.

    The end is Q[t] with u_i = t^i for 0 < i < k and u_0 = 1 (the relations
    are u_i u_j = u_(i+j) whenever i + j < k).  Under deglex, shorter words
    win, so t^w has a normal word of length ceil(w / (k - 1)): k - 1 weights
    per positive length.
    """
    return [1] + [k - 1] * bound


def evaluate(terms, images, mul, one):
    """Image of a polynomial under letter -> monoid element, in the monoid
    algebra: {element: nonzero coefficient}.  terms are (word, coeff) pairs."""
    out = {}
    for word, coeff in terms:
        x = one
        for letter in word:
            x = mul(x, images[letter])
        out[x] = out.get(x, Fraction(0)) + Fraction(coeff)
    return {x: c for x, c in out.items() if c != 0}


def lio_of_category(doc):
    """Locally initial objects of a category document, by counting arrows."""
    n = doc["objects"]
    count = {}
    for m in doc["morphisms"]:
        key = (m["dom"], m["cod"])
        count[key] = count.get(key, 0) + 1
    return [x for x in range(n) if all(count.get((x, y), 0) <= 1 for y in range(n))]


def partition(class_of):
    """A labelling's classes as a canonical set of frozensets."""
    blocks = {}
    for x, c in enumerate(class_of):
        blocks.setdefault(c, set()).add(x)
    return {frozenset(b) for b in blocks.values()}
