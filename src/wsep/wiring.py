"""Shuffled reduced words for a product of two symmetric groups, their double
wiring arrangements, chamber labels, and the induced maximal collections.

A word is a tuple of letters: positive int i is a black crossing at level i
(the S_m strand), negative int -j is a red crossing at level j (the S_k
strand).  Text form: whitespace-separated tokens with red letters suffixed
"r", e.g. "2 1r 1 2 3 2r 2 1 4 1r 3 2 1".

Geometry conventions: m black wires are labelled 1..m bottom-up at the LEFT
end; k red wires are labelled 1..k bottom-up at the RIGHT end (so red slot
occupancy propagates right-to-left).  A chamber at level h spans a maximal
run free of level-h crossings of either colour; crossings strictly below h
only permute the first h slots and do not end a chamber.  Its black label is
the set of black wires currently occupying slots 1..h, its red label the red
wires in slots 1..h.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

from .subsets import MinorIndex, _require_dims, is_boundary, stieffel_subset
from .wscoll import WSCollection

Word = tuple[int, ...]


def parse_word(text: str) -> Word:
    """Whitespace-separated letters, each decimal digits with an optional
    "r" for red.  A token that is not one, a sign or an underscore included,
    or a letter 0, is a ValueError quoting it and the word."""
    letters = []
    for tok in text.split():
        red = tok.endswith("r")
        digits = tok[:-1] if red else tok
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(
                f'letter "{tok}" of word "{text.strip()}" is not an integer with an optional "r"'
            )
        x = int(digits)
        if not x:
            raise ValueError(
                f'letter "{tok}" of word "{text.strip()}" is 0; letter indices are 1-based'
            )
        letters.append(-x if red else x)
    return tuple(letters)


def format_word(word: Word) -> str:
    return " ".join(f"{-x}r" if x < 0 else str(x) for x in word)


def black_part(word: Word) -> tuple[int, ...]:
    return tuple(x for x in word if x > 0)


def red_part(word: Word) -> tuple[int, ...]:
    return tuple(-x for x in word if x < 0)


def _is_reduced_for_longest(letters: Sequence[int], size: int) -> bool:
    """letters multiply (as adjacent swaps, applied left to right) to the
    order-reversing permutation of [1..size] in the minimal number of steps."""
    if len(letters) != comb(size, 2):
        return False
    state = list(range(1, size + 1))
    for i in letters:
        if not 1 <= i <= size - 1:
            return False
        state[i - 1], state[i] = state[i], state[i - 1]
    return state == list(range(size, 0, -1))


def _require_ranks(k: int, m: int) -> None:
    """Word collections need ints 0 <= k <= m; other k and m are a ValueError."""
    _require_dims(k, m, "k and m")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k} and m={m}")


def validate_word(word: Word, k: int, m: int) -> bool:
    """Whether word is a shuffle of reduced words for the longest elements
    of S_m (black) and S_k (red).  k and m are checked by `_require_ranks`."""
    _require_ranks(k, m)
    if any(x > 0 and x > m - 1 or x < 0 and -x > k - 1 for x in word):
        return False
    return _is_reduced_for_longest(black_part(word), m) and _is_reduced_for_longest(
        red_part(word), k
    )


def is_optimal(word: Word, k: int, m: int) -> bool:
    """The black part spends only (m-k choose 2) letters on levels above k."""
    if not validate_word(word, k, m):
        return False
    high = sum(1 for x in word if x > 0 and k + 1 <= x <= m - 1)
    return high == comb(m - k, 2)


@dataclass(frozen=True)
class Chamber:
    """A labelled face of the arrangement: level h, horizontal span given as
    gap positions (0 = far left, len(word) = far right), red label set and
    black label set, each of size h."""

    level: int
    start: int
    end: int
    red: tuple[int, ...]
    black: tuple[int, ...]


def chambers(word: Word, k: int, m: int) -> list[Chamber]:
    if not validate_word(word, k, m):
        raise ValueError("not a reduced word for the pair of longest elements")
    N = len(word)
    black_states = [tuple(range(1, m + 1))]
    for x in word:
        st = list(black_states[-1])
        if x > 0:
            st[x - 1], st[x] = st[x], st[x - 1]
        black_states.append(tuple(st))
    red_states = [tuple(range(1, k + 1))] * (N + 1)
    for p in range(N - 1, -1, -1):
        st = list(red_states[p + 1])
        if word[p] < 0:
            j = -word[p]
            st[j - 1], st[j] = st[j], st[j - 1]
        red_states[p] = tuple(st)
    out = []
    for h in range(1, k + 1):
        cuts = [p for p, x in enumerate(word) if abs(x) == h]
        gap_bounds = [0] + [p + 1 for p in cuts]
        for idx, lo in enumerate(gap_bounds):
            hi = cuts[idx] if idx < len(cuts) else N
            out.append(
                Chamber(
                    level=h,
                    start=lo,
                    end=hi,
                    red=tuple(sorted(red_states[lo][:h])),
                    black=tuple(sorted(black_states[lo][:h])),
                )
            )
    return out


def chamber_minor(ch: Chamber, k: int, m: int) -> MinorIndex:
    return MinorIndex(ch.red, ch.black, k, m)


def word_collection(word: Word, k: int, m: int) -> WSCollection:
    """The maximal collection on [1..k+m] carved out by an optimal word: the
    Stieffel subsets of all chamber labels plus the initial interval."""
    if not is_optimal(word, k, m):
        raise ValueError("word collections require an optimal reduced word")
    sets = {stieffel_subset(chamber_minor(ch, k, m)) for ch in chambers(word, k, m)}
    sets.add(tuple(range(1, k + 1)))
    out = WSCollection.of(k, k + m, sets)
    if len(out) != k * m + 1:
        raise AssertionError("chamber labels did not produce k*m distinct minors")
    return out


def is_wiring_parametrizable(c: WSCollection) -> bool:
    """k=2 criterion: some polygon edge e exists such that no chord of the
    triangulation separates e from any other edge while avoiding both."""
    if c.k != 2:
        raise ValueError("wiring parametrizability test is for k=2 collections")
    n = c.n
    edges = sorted({tuple(sorted((i, i % n + 1))) for i in range(1, n + 1)})
    chords = [s for s in c.sets if not is_boundary(s, n)]

    def separates(chord, e, f) -> bool:
        a, b = chord
        inside = set(range(a + 1, b))
        outside = set(range(1, n + 1)) - inside - {a, b}
        return (set(e) <= inside and set(f) <= outside) or (
            set(f) <= inside and set(e) <= outside
        )

    for e in edges:
        if all(
            not any(separates(ch, e, f) for ch in chords)
            for f in edges
            if f != e
        ):
            return True
    return False
