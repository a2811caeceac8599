"""Exact symbolic oracle for the quantized k-by-m matrix algebra.

Elements are noncommutative polynomials in generators x[i,j] with Laurent
coefficients, kept in normal form: monomials are words sorted by (row, col).
An out-of-order adjacent pair x[s,t] x[i,j] rewrites by the defining
commutation relations of the algebra:

    s=i, t>j  or  s>i, t=j :  q * x[i,j] x[s,t]
    s>i, t<j               :  x[i,j] x[s,t]
    s>i, t>j               :  x[i,j] x[s,t] + (q - q^-1) x[i,t] x[s,j]

Each step decreases the word lexicographically at its leading position, so
rewriting terminates.  One kernel, `_rewrite`, does all of it: it always
rewrites the leftmost inversion and keeps every pending coefficient as two
ints, q^e (q - q^-1)^b, so Laurent polynomials are built only for the
finished monomials.  Confluence is checked by tests against an independent
reference rewriter that picks inversions at random.

Words are checked once, where they enter: `normalize_word` checks that
they lie in the k-by-m algebra (integer indices in range), and the
`NCPoly(...)` constructor also that they are in normal form and that every
coefficient is a `Laurent`.  Internal results are built with
`NCPoly._trusted`.

The generator images of the k-by-m embedding, and whether they satisfy the
defining relations, are cached for the most recent `_EMBEDDINGS_CACHED` (28)
shapes: every (k, m) with k, m >= 1 and k + m <= `_EMBEDDING_MAX_TOTAL` (8),
the bound of `verify_embedding`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from math import comb
from typing import Iterable, Sequence

from .laurent import Laurent, ONE, Q, Q_MINUS_Q_INV, ZERO
from .subsets import MinorIndex, as_subset, check_in_range, stieffel_subset

Gen = tuple[int, int]
Word = tuple[Gen, ...]


def _check_word(word: Iterable[Gen], k: int, m: int) -> Word:
    w = tuple(word)
    for (i, j) in w:
        if not (isinstance(i, int) and isinstance(j, int) and 1 <= i <= k and 1 <= j <= m):
            raise ValueError(f"generator x[{i},{j}] outside the {k}x{m} algebra")
    return w


# (q - q^-1)^b as ((exponent, coefficient), ...), index b; extended on demand.
_QMQ_POWERS: list[tuple[tuple[int, int], ...]] = []


def _qmq_power(b: int) -> tuple[tuple[int, int], ...]:
    while len(_QMQ_POWERS) <= b:
        a = len(_QMQ_POWERS)
        _QMQ_POWERS.append(tuple((a - 2 * i, (-1) ** i * comb(a, i)) for i in range(a + 1)))
    return _QMQ_POWERS[b]


def _rewrite(
    word: list[Gen], coeff: Sequence[tuple[int, int]], out: dict[Word, dict[int, int]]
) -> None:
    """Add coeff * word, in normal form, into out (monomial -> {exponent:
    integer coefficient}); coeff is a sequence of (exponent, int) pairs and
    word a list of checked generators, which this consumes.

    A pending word carries q^e (q - q^-1)^b and the position where the scan
    for its leftmost inversion resumes: after a swap at p the letters before
    p are still in order, so the scan resumes at p - 1.  A swap is made in
    place; the cross term of a diagonal pair is pushed as a new word."""
    powers = _QMQ_POWERS
    stack = [(word, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        w, e, b, p = pop()
        last = len(w) - 1
        while p < last:
            x = w[p]
            y = w[p + 1]
            if x <= y:
                p += 1
                continue
            s, t = x
            i, j = y
            if s == i or t == j:
                e += 1
            elif t > j:
                cross = w[:]
                cross[p] = (i, t)
                cross[p + 1] = (s, j)
                push((cross, e, b + 1, p - 1 if p else 0))
            w[p] = y
            w[p + 1] = x
            if p:
                p -= 1
        key = tuple(w)
        acc = out.get(key)
        if acc is None:
            acc = out[key] = {}
        for d, u in powers[b] if b < len(powers) else _qmq_power(b):
            d += e
            for x, v in coeff:
                x += d
                acc[x] = acc.get(x, 0) + u * v


def _laurents(out: dict[Word, dict[int, int]]) -> dict[Word, Laurent]:
    """One Laurent per monomial of a `_rewrite` result; zeros dropped."""
    t = {}
    for w, acc in out.items():
        c = Laurent(acc)
        if c:
            t[w] = c
    return t


def normalize_word(
    k: int, m: int, word: Iterable[Gen], coeff: Laurent = ONE
) -> dict[Word, Laurent]:
    """Rewrite coeff * word into normal form, returning monomial -> Laurent."""
    out: dict[Word, dict[int, int]] = {}
    _rewrite(list(_check_word(word, k, m)), tuple(coeff.items()), out)
    return _laurents(out)


class NCPoly:
    """Noncommutative polynomial over Z[q,q^-1] in normal form."""

    __slots__ = ("k", "m", "_t")

    def __init__(self, k: int, m: int, terms: dict[Word, Laurent] | None = None):
        """Terms map words to `Laurent` coefficients; a word outside the
        k-by-m algebra or not in normal form, or a coefficient of another
        type, is a ValueError, and zero coefficients are dropped."""
        self.k = k
        self.m = m
        self._t = {}
        for w, c in (terms or {}).items():
            w = _check_word(w, k, m)
            if any(w[p] > w[p + 1] for p in range(len(w) - 1)):
                raise ValueError(f"word {w} is not in normal form")
            if not isinstance(c, Laurent):
                raise ValueError(f"coefficient {c!r} of word {w} is not a Laurent polynomial")
            if c:
                self._t[w] = c

    @classmethod
    def _trusted(cls, k: int, m: int, t: dict[Word, Laurent]) -> "NCPoly":
        """A polynomial from terms already known to be checked words with
        nonzero coefficients; t is taken, not copied."""
        p = cls.__new__(cls)
        p.k = k
        p.m = m
        p._t = t
        return p

    @staticmethod
    def zero(k: int, m: int) -> "NCPoly":
        return NCPoly(k, m)

    @staticmethod
    def one(k: int, m: int) -> "NCPoly":
        return NCPoly(k, m, {(): ONE})

    @staticmethod
    def scalar(k: int, m: int, c: Laurent) -> "NCPoly":
        return NCPoly(k, m, {(): c})

    @staticmethod
    def generator(k: int, m: int, i: int, j: int) -> "NCPoly":
        return NCPoly(k, m, {((i, j),): ONE})

    @staticmethod
    def from_word(k: int, m: int, word: Iterable[Gen], coeff: Laurent = ONE) -> "NCPoly":
        return NCPoly._trusted(k, m, normalize_word(k, m, word, coeff))

    def terms(self) -> dict[Word, Laurent]:
        return dict(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def _check_dims(self, other: "NCPoly"):
        if (self.k, self.m) != (other.k, other.m):
            raise ValueError("polynomials live in different algebras")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check_dims(other)
        t = dict(self._t)
        for w, c in other._t.items():
            acc = t.get(w, ZERO) + c
            if acc:
                t[w] = acc
            elif w in t:
                del t[w]
        return NCPoly._trusted(self.k, self.m, t)

    def __neg__(self) -> "NCPoly":
        return NCPoly._trusted(self.k, self.m, {w: -c for w, c in self._t.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + (-other)

    def __mul__(self, other: "NCPoly") -> "NCPoly":
        """All |self|*|other| concatenations go through `_rewrite` into one
        accumulator; both sides' words are already checked."""
        self._check_dims(other)
        out: dict[Word, dict[int, int]] = {}
        for w1, c1 in self._t.items():
            c1 = c1.items()
            for w2, c2 in other._t.items():
                coeff = [(x1 + x2, v1 * v2) for x1, v1 in c1 for x2, v2 in c2.items()]
                _rewrite(list(w1 + w2), coeff, out)
        return NCPoly._trusted(self.k, self.m, _laurents(out))

    def scale(self, c: Laurent) -> "NCPoly":
        t = {}
        for w, v in self._t.items():
            v = v * c
            if v:
                t[w] = v
        return NCPoly._trusted(self.k, self.m, t)

    def pow(self, e: int) -> "NCPoly":
        if e < 0:
            raise ValueError("negative powers unsupported")
        acc = NCPoly.one(self.k, self.m)
        for _ in range(e):
            acc = acc * self
        return acc

    def at_one(self) -> dict[Word, int]:
        """Specialize q -> 1 (the underlying commutative values per monomial)."""
        return {w: c.at_one() for w, c in self._t.items() if c.at_one()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCPoly)
            and (self.k, self.m) == (other.k, other.m)
            and self._t == other._t
        )

    def __hash__(self):
        return hash((self.k, self.m, tuple(sorted(self._t.items(), key=lambda kv: kv[0]))))

    def __str__(self) -> str:
        if not self._t:
            return "0"
        chunks = []
        for w in sorted(self._t):
            c = str(self._t[w])
            if (" + " in c) or (" - " in c):
                c = f"({c})"
            mono = " ".join(f"x[{i},{j}]" for i, j in w)
            chunks.append(f"{c} * {mono}" if mono else c)
        text = chunks[0]
        for chunk in chunks[1:]:
            if chunk.startswith("-"):
                text += " - " + chunk[1:]
            else:
                text += " + " + chunk
        return text

    def __repr__(self) -> str:
        return f"NCPoly({self.k}x{self.m}: {self})"


def quantum_minor(mi: MinorIndex) -> NCPoly:
    """Sum over column permutations of (-q)^(-inversions) times the row-sorted
    word; row-sorted words are already in normal form."""
    l = mi.size
    terms: dict[Word, Laurent] = {}
    for sigma in permutations(range(l)):
        inv = sum(1 for a in range(l) for b in range(a + 1, l) if sigma[a] > sigma[b])
        word = tuple((mi.rows[r], mi.cols[sigma[r]]) for r in range(l))
        terms[word] = Laurent.term((-1) ** inv, -inv)
    return NCPoly(mi.k, mi.m, terms)


def quasi_commutation_exponent(p: NCPoly, r: NCPoly) -> int | None:
    """c with r*p == q^c * (p*r), detected coefficient-wise; None otherwise."""
    if p.is_zero() or r.is_zero():
        raise ValueError("quasi-commutation is undefined for zero inputs")
    pr = (p * r)._t
    rp = (r * p)._t
    if pr.keys() != rp.keys():
        return None
    c = None
    for w, a in pr.items():
        d = rp[w].shift_ratio(a)
        if d is None:
            return None
        if c is None:
            c = d
        elif c != d:
            return None
    return c


def plucker_realize(K: Iterable[int], k: int, n: int) -> NCPoly:
    """The coordinate labelled by the k-subset K of [1..n], realized as the
    maximal quantum minor on rows [1..k] and columns K."""
    K = check_in_range(K, n)
    if len(K) != k:
        raise ValueError(f"need a {k}-subset, got {K}")
    return quantum_minor(MinorIndex(tuple(range(1, k + 1)), K, k, n))


def qplucker_relation_holds(I: Iterable[int], J: Iterable[int], k: int, n: int) -> bool:
    """The defining exchange relation on a (k+1)-subset I and (k-1)-subset J:
    the signed sum of products over i in I-J vanishes in the realization."""
    I = check_in_range(I, n)
    J = check_in_range(J, n)
    if len(I) != k + 1 or len(J) != k - 1:
        raise ValueError("need a (k+1)-subset and a (k-1)-subset")
    acc = NCPoly.zero(k, n)
    for i in I:
        if i in J:
            continue
        inv_i = sum(1 for x in I if i > x)
        inv_j = sum(1 for x in J if i > x)
        e = inv_i - inv_j
        left = plucker_realize(tuple(x for x in I if x != i), k, n)
        right = plucker_realize(as_subset(J + (i,)), k, n)
        acc = acc + (left * right).scale(Laurent.term((-1) ** e, e))
    return acc.is_zero()


_EMBEDDING_MAX_TOTAL = 8
_EMBEDDINGS_CACHED = _EMBEDDING_MAX_TOTAL * (_EMBEDDING_MAX_TOTAL - 1) // 2


@lru_cache(maxsize=_EMBEDDINGS_CACHED)
def embedding_images(k: int, m: int) -> dict[Gen, NCPoly]:
    """Images of the x[i,j] under the coordinate embedding into the k-by-(k+m)
    algebra: each generator maps to the realized coordinate of its singleton
    Stieffel subset."""
    n = k + m
    return {
        (i, j): plucker_realize(stieffel_subset(MinorIndex((i,), (j,), k, m)), k, n)
        for i in range(1, k + 1)
        for j in range(1, m + 1)
    }


@lru_cache(maxsize=_EMBEDDINGS_CACHED)
def embedding_respects_relations(k: int, m: int) -> bool:
    """The generator images satisfy the same commutation relations pairwise."""
    phi = embedding_images(k, m)
    gens = sorted(phi)
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            (i, j), (s, t) = gens[a], gens[b]
            lhs = phi[(s, t)] * phi[(i, j)]
            if s == i or t == j:
                rhs = (phi[(i, j)] * phi[(s, t)]).scale(Q)
            elif t < j:
                rhs = phi[(i, j)] * phi[(s, t)]
            else:
                rhs = phi[(i, j)] * phi[(s, t)] + (
                    phi[(i, t)] * phi[(s, j)]
                ).scale(Q_MINUS_Q_INV)
            if lhs != rhs:
                return False
    return True


def verify_embedding(mi: MinorIndex) -> bool:
    """Check the minor-level embedding identity: the image of
    `quantum_minor(mi)` under the generator images equals
    q^(l choose 2) * D^(l-1) * (realized coordinate of its Stieffel subset),
    where D is the realized coordinate of [1..k]; also checks the generator
    images satisfy the defining relations.  Symbolic expansion grows steeply,
    so k+m is capped at the desk-scale bound `_EMBEDDING_MAX_TOTAL` (8), for
    which the caches are sized."""
    if mi.k + mi.m > _EMBEDDING_MAX_TOTAL:
        raise ValueError(f"k+m = {mi.k + mi.m} exceeds the bound {_EMBEDDING_MAX_TOTAL}")
    if not embedding_respects_relations(mi.k, mi.m):
        return False
    k, m, l = mi.k, mi.m, mi.size
    n = k + m
    phi = embedding_images(k, m)
    lhs = NCPoly.zero(k, n)
    for word, coeff in quantum_minor(mi).terms().items():
        term = NCPoly.scalar(k, n, coeff)
        for g in word:
            term = term * phi[g]
        lhs = lhs + term
    delta = plucker_realize(tuple(range(1, k + 1)), k, n)
    rhs = delta.pow(l - 1) * plucker_realize(stieffel_subset(mi), k, n)
    rhs = rhs.scale(Laurent.term(1, l * (l - 1) // 2))
    return lhs == rhs
