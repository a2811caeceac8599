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
rewrites the leftmost inversion, keeps every pending coefficient as two
ints, q^e (q - q^-1)^b, and returns the leaves as (word, coefficient)
pairs, each normal-form word it reaches with the coefficient q^e (q -
q^-1)^b as a tuple of (exponent, int) pairs.  That tuple comes from one
table keyed by (e, b), `_LEAF_COEFFS`, so leaves with equal e and b share
one tuple.  Confluence is checked by tests against an independent
reference rewriter that picks inversions at random.

Inside the module a letter x[i,j] is the int i << B | j, with B =
m.bit_length() for the algebra and M = (1 << B) - 1, so int order is
(row, col) order and a word is a tuple of ints.  For letters x > y, same
row is (x ^ y) <= M, same column is not (x ^ y) & M, and the cross letters
of a diagonal pair are y ^ d and x ^ d with d = (x ^ y) & M.  Words are
encoded once, where they enter (the `NCPoly(...)` constructor, `generator`,
`normalize_word`), and decoded back to (i, j) pairs only where they
leave (`terms()`, `at_one()`, `str()` and the result of
`normalize_word`).

Products go through `_product`, which works on an order-preserving
relabelling of the rows and columns its two factors use (`_Pattern`).  The
relations compare rows with rows and columns with columns only, so the
normal form of a relabelled word is the relabelled normal form, and many
concatenations share one relabelled word: over all ordered Gr(3,7) pairs,
88,200 concatenations come to 2,268 relabelled words.  A relabelled letter
is i << h | j, h the bit length of the larger of the relabelled row and
column counts, and a relabelled word is a tuple of such codes.
`_Pattern.relabel` gives each term as (relabelled word, tuple of its
coefficient's (exponent, int) items), read once however many products the
term joins.  Each concatenation's leaves are looked up in one module
table, `_PATTERNS`, keyed by h followed by the concatenated codes, since
one code tuple reads as different letters at two values of h; an entry is
the list of leaves as `_rewrite` returns it, with nothing expanded or
merged when it is stored (most lookups of a Gr(4,8) check miss, so a miss
must stay cheap).  A miss computes the leaves with `_rewrite`, its scan
started at the join, the only place an inversion can be.  The table holds
at most `_PATTERNS_CACHED` (8,192) entries and is emptied when full.

`_product` holds the module's one accumulation loop: it adds v q^x times
the leaves of a concatenation into a raw {word: {exponent: int}} map, for
each term v q^x of the product of its two factors' coefficients.
`normalize_word` is the `_product` of its coefficient (the empty word) and
its word, relabelled by the word's own pattern, so its scan starts at
position 0 and its table key is the relabelled word, shared with every
concatenation that relabels to it.  `NCPoly.__mul__` decodes the words of
its result once, and builds one `Laurent` per monomial;
`quasi_commutation_exponent` relabels p and r once for both products and
compares their raw maps in one pass over p*r, with nothing decoded and no
`Laurent` built.

Input is checked once, at that ingress: k and m must be ints, a letter a
pair of int indices in range (a bool is not an int), a coefficient or a
scale factor a `Laurent`, a power an int >= 0, the arguments of
`quasi_commutation_exponent` `NCPoly`s, and a word given to the
constructor in normal form.  Internal results are built with
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
from .subsets import (
    MinorIndex,
    _is_int,
    _require_dims,
    as_subset,
    check_in_range,
    stieffel_subset,
)

Gen = tuple[int, int]
Word = tuple[Gen, ...]
Code = tuple[int, ...]  # a word of letter codes


def _encode(word: Iterable[Gen], k: int, m: int) -> Code:
    """The letter codes of a word; a letter that is not a pair of int
    indices within the k-by-m algebra is a ValueError."""
    b = m.bit_length()
    out = []
    for i, j in word:
        if not (_is_int(i) and _is_int(j) and 1 <= i <= k and 1 <= j <= m):
            raise ValueError(f"generator x[{i},{j}] outside the {k}x{m} algebra")
        out.append(i << b | j)
    return tuple(out)


def _decode(w: Code, m: int) -> Word:
    """The (i, j) letters of a word of codes in a k-by-m algebra."""
    b = m.bit_length()
    mask = (1 << b) - 1
    return tuple((x >> b, x & mask) for x in w)


# q^e (q - q^-1)^b as ((exponent, int), ...), keyed by (e, b); one tuple per
# key, shared by every leaf with that e and b.
_LEAF_COEFFS: dict[tuple[int, int], tuple[tuple[int, int], ...]] = {}


def _leaf_coeff(e: int, b: int) -> tuple[tuple[int, int], ...]:
    """The `_LEAF_COEFFS` tuple of q^e (q - q^-1)^b, made on first use."""
    c = _LEAF_COEFFS.get((e, b))
    if c is None:
        c = _LEAF_COEFFS[e, b] = tuple(
            (e + b - 2 * i, (-1) ** i * comb(b, i)) for i in range(b + 1)
        )
    return c


def _rewrite(word: list[int], mask: int, p: int = 0) -> list:
    """The leaves of rewriting `word`, a list of letter codes with column
    bits `mask`, which this consumes, into normal form; the letters before
    position p are in order.  Each leaf is a pair (normal-form word as a
    tuple of codes, coefficient), and the word is the sum of its leaves.  A
    coefficient q^e (q - q^-1)^b is the `_leaf_coeff(e, b)` tuple of
    (exponent, int) pairs, one object per (e, b).

    A pending word carries its e, its b and the position where the scan for
    its leftmost inversion resumes: after a swap at p the letters before p
    are still in order, so the scan resumes at p - 1.  A swap is made in
    place; the cross term of a diagonal pair is pushed as a new word."""
    coeffs = _LEAF_COEFFS
    leaves = []
    stack = [(word, 0, 0, p)]
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
            d = x ^ y
            if d <= mask or not d & mask:
                e += 1
            elif x & mask > y & mask:
                d &= mask
                cross = w[:]
                cross[p] = y ^ d
                cross[p + 1] = x ^ d
                push((cross, e, b + 1, p - 1 if p else 0))
            w[p] = y
            w[p + 1] = x
            if p:
                p -= 1
        leaves.append((tuple(w), coeffs.get((e, b)) or _leaf_coeff(e, b)))
    return leaves


# The `_rewrite` leaves of relabelled concatenations, keyed by h and the
# concatenated codes (see `_product`); at most `_PATTERNS_CACHED` entries,
# and emptied when full.
_PATTERNS: dict[Code, list] = {}


class _Pattern:
    """The order-preserving relabelling of the rows and columns used by the
    terms of some polynomials onto rows 1..R and columns 1..C.

    The defining relations compare rows with rows and columns with columns
    only, so the normal form of a relabelled word is the relabelled normal
    form.  A relabelled letter is i << h | j with h = max(R, C).bit_length()
    (0 when no term has a letter), and a relabelled word is a tuple of such
    codes."""

    __slots__ = ("h", "mask", "code", "rows", "cols")

    def __init__(self, b: int, *terms: dict[Code, Laurent]):
        """b is the number of column bits of a letter code in the algebra,
        m.bit_length()."""
        letters = {x for t in terms for w in t for x in w}
        col = (1 << b) - 1
        rows = sorted({x >> b for x in letters})
        cols = sorted({x & col for x in letters})
        h = self.h = max(len(rows), len(cols)).bit_length()
        self.mask = (1 << h) - 1
        row_of = {r: i << h for i, r in enumerate(rows, 1)}
        col_of = {c: j for j, c in enumerate(cols, 1)}
        self.code = {x: row_of[x >> b] | col_of[x & col] for x in letters}
        # back to the algebra's codes: relabelled row i is self.rows[i], and
        # column j self.cols[j]
        self.rows = [0, *(r << b for r in rows)]
        self.cols = [0, *cols]

    def relabel(self, t: dict[Code, Laurent]) -> list[tuple[Code, tuple]]:
        """Each term of t as (relabelled word, tuple of its coefficient's
        (exponent, int) items), read once for every product it joins."""
        code = self.code
        return [(tuple([code[x] for x in w]), tuple(c.items())) for w, c in t.items()]

    def decode(self, w: Code) -> Code:
        """The algebra's letter codes of a relabelled word."""
        rows, cols, h, mask = self.rows, self.cols, self.h, self.mask
        return tuple([rows[x >> h] | cols[x & mask] for x in w])


def _product(
    a: list[tuple[Code, tuple]],
    b: list[tuple[Code, tuple]],
    pattern: _Pattern,
) -> dict[Code, dict[int, int]]:
    """The raw terms of the product of two normal-form term lists, both given
    by `pattern.relabel`, keyed by relabelled word.  Each concatenation's
    leaves come from `_PATTERNS`, keyed by h followed by the concatenated
    codes: h keeps a code tuple read at two values of h apart.  On a miss,
    `_rewrite` computes the leaves with its scan started at the join, the
    only place an inversion can be, and they are stored as they come.  This
    is the module's one accumulation loop: for each pair of coefficient
    terms, v1 q^x1 of the left word and v2 q^x2 of the right, every leaf
    (word, q^e (q - q^-1)^b) adds v1 v2 q^(x1 + x2) times its coefficient
    into out[word].  Zero coefficients are kept."""
    table = _PATTERNS
    h, mask = pattern.h, pattern.mask
    out: dict[Code, dict[int, int]] = {}
    get = out.get
    for w1, c1 in a:
        left = (h, *w1)
        join = max(len(w1) - 1, 0)
        for w2, c2 in b:
            key = left + w2
            leaves = table.get(key)
            if leaves is None:
                leaves = _rewrite([*w1, *w2], mask, join)
                if len(table) >= _PATTERNS_CACHED:
                    table.clear()
                table[key] = leaves
            for x1, v1 in c1:
                for x2, v2 in c2:
                    x = x1 + x2
                    v = v1 * v2
                    for w, coeff in leaves:
                        acc = get(w)
                        if acc is None:
                            acc = out[w] = {}
                        for d, u in coeff:
                            d += x
                            acc[d] = acc.get(d, 0) + u * v
    return out


def _laurents(out: dict, decode=None) -> dict[Code, Laurent]:
    """One Laurent per monomial of raw terms, each word passed through
    decode when given; zeros dropped."""
    t = {}
    for w, acc in out.items():
        c = {e: v for e, v in acc.items() if v}
        if c:
            t[decode(w) if decode else w] = Laurent._trusted(c)
    return t


def normalize_word(
    k: int, m: int, word: Iterable[Gen], coeff: Laurent = ONE
) -> dict[Word, Laurent]:
    """Rewrite coeff * word into normal form, returning monomial -> Laurent;
    checked at ingress.  This is the `_product` of coeff times the empty
    word and the word, relabelled by the word's own `_Pattern`: the scan
    starts at position 0, and the `_PATTERNS` key is the relabelled word,
    shared with every concatenation that relabels to it."""
    _require_dims(k, m, "k and m")
    w = _encode(word, k, m)
    if not isinstance(coeff, Laurent):
        raise ValueError(
            f"coefficient {coeff!r} of word {_decode(w, m)} is not a Laurent polynomial"
        )
    t = {w: ONE}
    pattern = _Pattern(m.bit_length(), t)
    out = _product([((), tuple(coeff.items()))], pattern.relabel(t), pattern)
    return _laurents(out, lambda w: _decode(pattern.decode(w), m))


class NCPoly:
    """Noncommutative polynomial over Z[q,q^-1] in normal form; its terms
    map words of letter codes to nonzero `Laurent` coefficients."""

    __slots__ = ("k", "m", "_t")

    def __init__(self, k: int, m: int, terms: dict[Word, Laurent] | None = None):
        """Terms map words to `Laurent` coefficients; k or m not an int, a
        word outside the k-by-m algebra or not in normal form, or a
        coefficient of another type, is a ValueError, and zero coefficients
        are dropped."""
        _require_dims(k, m, "k and m")
        self.k = k
        self.m = m
        self._t = {}
        for word, c in (terms or {}).items():
            w = _encode(word, k, m)
            if any(w[p] > w[p + 1] for p in range(len(w) - 1)):
                raise ValueError(f"word {tuple(word)} is not in normal form")
            if not isinstance(c, Laurent):
                raise ValueError(
                    f"coefficient {c!r} of word {tuple(word)} is not a Laurent polynomial"
                )
            if c:
                self._t[w] = c

    @classmethod
    def _trusted(cls, k: int, m: int, t: dict[Code, Laurent]) -> "NCPoly":
        """A polynomial from terms already known to be checked code words
        with nonzero coefficients; t is taken, not copied."""
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

    def terms(self) -> dict[Word, Laurent]:
        return {_decode(w, self.m): c for w, c in self._t.items()}

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
        """The product by `_product`, one Laurent per monomial; both sides'
        words are already checked."""
        self._check_dims(other)
        pattern = _Pattern(self.m.bit_length(), self._t, other._t)
        out = _product(pattern.relabel(self._t), pattern.relabel(other._t), pattern)
        return NCPoly._trusted(self.k, self.m, _laurents(out, pattern.decode))

    def scale(self, c: Laurent) -> "NCPoly":
        """c times self; c must be a `Laurent`."""
        if not isinstance(c, Laurent):
            raise ValueError(f"scale factor {c!r} is not a Laurent polynomial")
        t = {}
        for w, v in self._t.items():
            v = v * c
            if v:
                t[w] = v
        return NCPoly._trusted(self.k, self.m, t)

    def pow(self, e: int) -> "NCPoly":
        """self to the power e, an int >= 0 (a bool is not an int)."""
        if not _is_int(e) or e < 0:
            raise ValueError(f"power {e!r} is not a non-negative integer")
        acc = NCPoly.one(self.k, self.m)
        for _ in range(e):
            acc = acc * self
        return acc

    def at_one(self) -> dict[Word, int]:
        """Specialize q -> 1 (the underlying commutative values per monomial)."""
        return {_decode(w, self.m): v for w, c in self._t.items() if (v := c.at_one())}

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
            mono = " ".join(f"x[{i},{j}]" for i, j in _decode(w, self.m))
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


@lru_cache(maxsize=None)
def _signed_permutations(l: int) -> tuple[tuple[tuple[int, ...], Laurent], ...]:
    """Each permutation sigma of range(l) with its coefficient
    (-q)^(-inversions of sigma)."""
    out = []
    for sigma in permutations(range(l)):
        inv = sum(1 for a in range(l) for b in range(a + 1, l) if sigma[a] > sigma[b])
        out.append((sigma, Laurent.term((-1) ** inv, -inv)))
    return tuple(out)


def _minor(k: int, m: int, rows: Sequence[int], cols: Sequence[int]) -> NCPoly:
    """The quantum minor on rows and columns of the k-by-m algebra, both
    already checked as non-empty subsets of equal size within it: the sum
    over column permutations of (-q)^(-inversions) times the row-sorted
    word, which is already in normal form."""
    b = m.bit_length()
    rows = [r << b for r in rows]
    terms = {
        tuple([row | cols[s] for row, s in zip(rows, sigma)]): coeff
        for sigma, coeff in _signed_permutations(len(rows))
    }
    return NCPoly._trusted(k, m, terms)


def quantum_minor(mi: MinorIndex) -> NCPoly:
    """The quantum minor of `mi`, whose rows and columns `MinorIndex` has
    checked."""
    return _minor(mi.k, mi.m, mi.rows, mi.cols)


def quasi_commutation_exponent(p: NCPoly, r: NCPoly) -> int | None:
    """c with r*p == q^c * (p*r), detected in one pass over the raw terms of
    p*r, zeros skipped; None otherwise.  c is the lowest nonzero exponent of
    r*p minus that of p*r on the first word of p*r with a nonzero term;
    every nonzero term of p*r must meet an equal term of r*p at its exponent
    plus c, and the terms so matched must be all the nonzero terms of r*p.
    A word of p*r whose r*p coefficient is absent or cancels is None.  Both
    arguments must be nonzero `NCPoly`s of one algebra."""
    for name, x in (("p", p), ("r", r)):
        if not isinstance(x, NCPoly):
            raise ValueError(f"quasi-commutation argument {name} = {x!r} is not an NCPoly")
    if p.is_zero() or r.is_zero():
        raise ValueError("quasi-commutation is undefined for zero inputs")
    p._check_dims(r)
    pattern = _Pattern(p.m.bit_length(), p._t, r._t)
    a, b = pattern.relabel(p._t), pattern.relabel(r._t)
    pr = _product(a, b, pattern)
    rp = _product(b, a, pattern)
    c = None
    matched = 0
    for w, acc in pr.items():
        other = rp.get(w, {})
        for e, v in acc.items():
            if not v:
                continue
            if c is None:
                low = min((f for f, u in other.items() if u), default=None)
                if low is None:
                    return None
                c = low - min(f for f, u in acc.items() if u)
            if other.get(e + c) != v:
                return None
            matched += 1
    if matched != sum(1 for acc in rp.values() for v in acc.values() if v):
        return None
    return c


def plucker_realize(K: Iterable[int], k: int, n: int) -> NCPoly:
    """The coordinate labelled by the k-subset K of [1..n], realized as the
    maximal quantum minor on rows [1..k] and columns K of the k-by-n
    algebra; K is checked once, here, and k must be at least 1."""
    _require_dims(k, n, "k and n")
    K = check_in_range(K, n)
    if len(K) != k:
        raise ValueError(f"need a {k}-subset, got {K}")
    if not K:
        raise ValueError("row and column sets must be non-empty of equal size")
    return _minor(k, n, range(1, k + 1), K)


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
        acc = acc + (left * right).scale(Laurent.term(-1 if e % 2 else 1, e))
    return acc.is_zero()


_EMBEDDING_MAX_TOTAL = 8
_EMBEDDINGS_CACHED = _EMBEDDING_MAX_TOTAL * (_EMBEDDING_MAX_TOTAL - 1) // 2
_PATTERNS_CACHED = 8192


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
