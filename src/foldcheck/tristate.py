"""Tri-valued invariant statuses with provenance notes.

Integral data (twisted Whitney classes, Pontrjagin classes, the secondary
obstruction z) is never carried as explicit cocycles, only as a ``Tri``
vanishing status plus a note saying where the status came from, read by one
set of predicates (``is_zero``, ``is_nonzero``, ``is_unknown``).  p_1 adds
the pairing <p_1, [M]> where it is recorded.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple


class Tri(Enum):
    ZERO = "zero"
    NONZERO = "nonzero"
    UNKNOWN = "unknown"


class TriState(NamedTuple):
    """Vanishing status of an integral class, with a provenance note."""

    value: Tri
    note: str = ""

    @staticmethod
    def zero(note: str = "") -> "TriState":
        return TriState(Tri.ZERO, note)

    @staticmethod
    def nonzero(note: str = "") -> "TriState":
        return TriState(Tri.NONZERO, note)

    @staticmethod
    def unknown(note: str = "") -> "TriState":
        return TriState(Tri.UNKNOWN, note)

    @property
    def is_zero(self) -> bool:
        return self.value is Tri.ZERO

    @property
    def is_nonzero(self) -> bool:
        return self.value is Tri.NONZERO

    @property
    def is_unknown(self) -> bool:
        return self.value is Tri.UNKNOWN

    def __str__(self) -> str:
        return self.value.value


class P1Data(NamedTuple):
    """First Pontrjagin class status, with the pairing where it is known.

    ``value`` is the vanishing status, read by ``TriState``'s predicates.
    ``number`` is the pairing <p1, [M]> of an oriented 4-manifold, which
    sets ``value``; the class statuses carry no number.  Integer 0 and the
    zero class are interchangeable for decisions on oriented 4-manifolds.
    """

    value: Tri
    number: int | None = None
    note: str = ""

    @staticmethod
    def integer(k: int, note: str = "") -> "P1Data":
        return P1Data(Tri.NONZERO if k else Tri.ZERO, int(k), note)

    @staticmethod
    def zero_class(note: str = "") -> "P1Data":
        return P1Data(Tri.ZERO, None, note)

    @staticmethod
    def nonzero_class(note: str = "") -> "P1Data":
        return P1Data(Tri.NONZERO, None, note)

    @staticmethod
    def unknown(note: str = "") -> "P1Data":
        return P1Data(Tri.UNKNOWN, None, note)

    is_zero = TriState.is_zero
    is_nonzero = TriState.is_nonzero
    is_unknown = TriState.is_unknown

    def __str__(self) -> str:
        if self.number is not None:
            return str(self.number)
        return "unknown" if self.is_unknown else f"{self.value.value} class"


def p1_negate(p: P1Data) -> P1Data:
    if p.number is not None:
        return P1Data.integer(-p.number, p.note)
    return p


def p1_add(a: P1Data, b: P1Data) -> P1Data:
    """Status of two p1 contributions living in complementary summands.

    Componentwise: one nonzero component makes the whole class nonzero no
    matter what the other one is, and nothing ever cancels.  Genuinely
    additive situations (degree 4, where both classes share one group)
    need their own casework and must not come through here.
    """
    if a.is_nonzero or b.is_nonzero:
        return P1Data.nonzero_class("nonzero in one summand")
    if a.is_zero and b.is_zero:
        return P1Data.zero_class("both summands vanish")
    return P1Data.unknown("insufficient integral data")


def p1_difference(a: P1Data, b: P1Data) -> P1Data:
    """Status of p1(alpha - beta) for a virtual difference bundle.

    Unlike p1_add, opposite nonzero contributions may cancel here.
    """
    if a.number is not None and b.number is not None:
        return P1Data.integer(a.number - b.number)
    if a.number is not None and b.is_zero:
        return P1Data.integer(a.number)
    if b.number is not None and a.is_zero:
        return P1Data.integer(-b.number)
    if a.is_zero and b.is_zero:
        return P1Data.zero_class("both terms vanish")
    if a.is_nonzero and b.is_zero:
        return P1Data.nonzero_class("first term nonzero, second zero")
    if b.is_nonzero and a.is_zero:
        return P1Data.nonzero_class("second term nonzero, first zero")
    return P1Data.unknown("possible cancellation or missing data")
