"""Exact Laurent polynomials in q with integer coefficients.

This is the coefficient ring for the noncommutative oracle: everything the
oracle checks lives over Z[q, q^-1], so equality is decidable and division by
a power of q is an exact exponent shift.
"""

from __future__ import annotations

from .subsets import _is_int


class Laurent:
    """Sparse map exponent -> integer coefficient; zero coefficients dropped."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        """coeffs maps exponents to coefficients, as a mapping or as
        (exponent, coefficient) pairs, whose coefficients add up where an
        exponent repeats.  Both must be ints; anything else, a bool or a
        float included, is a ValueError."""
        if coeffs is None:
            coeffs = {}
        try:
            pairs = [(e, v) for e, v in (coeffs.items() if hasattr(coeffs, "items") else coeffs)]
        except (TypeError, ValueError):
            raise ValueError(f"{coeffs!r} is not a map of exponents to coefficients") from None
        c = {}
        for e, v in pairs:
            if not (_is_int(e) and _is_int(v)):
                raise ValueError(f"Laurent coefficients and exponents must be ints, got {v!r} at q^{e!r}")
            v = c.get(e, 0) + v
            if v:
                c[e] = v
            elif e in c:
                del c[e]
        self._c = c

    @staticmethod
    def _trusted(c: dict) -> "Laurent":
        """The Laurent polynomial of c, a dict from int exponents to nonzero
        int coefficients, which it takes as it is."""
        out = Laurent.__new__(Laurent)
        out._c = c
        return out

    @staticmethod
    def term(coeff: int, exp: int = 0) -> "Laurent":
        return Laurent({exp: coeff})

    def items(self):
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def __add__(self, other: "Laurent") -> "Laurent":
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            elif e in c:
                del c[e]
        return Laurent._trusted(c)

    def __neg__(self) -> "Laurent":
        return Laurent._trusted({e: -v for e, v in self._c.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                w = c.get(e, 0) + v1 * v2
                if w:
                    c[e] = w
                elif e in c:
                    del c[e]
        return Laurent._trusted(c)

    def shift(self, d: int) -> "Laurent":
        """Multiply by q^d."""
        return Laurent._trusted({e + d: v for e, v in self._c.items()})

    def at_one(self) -> int:
        """Specialize q -> 1."""
        return sum(self._c.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            if e == 0:
                body = str(abs(v))
            else:
                mag = "" if abs(v) == 1 else str(abs(v))
                body = f"{mag}q^{e}" if e != 1 else f"{mag}q"
            if not parts:
                parts.append(body if v > 0 else "-" + body)
            else:
                parts.append(("+ " if v > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Laurent({self})"


ZERO = Laurent()
ONE = Laurent.term(1)
Q = Laurent.term(1, 1)
Q_INV = Laurent.term(1, -1)
Q_MINUS_Q_INV = Q - Q_INV
