"""Tri-valued invariant statuses with provenance notes.

Integral data (twisted Whitney classes, Pontrjagin classes) is never carried
as explicit cocycles, only as a vanishing status plus a note saying where the
status came from.
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


class P1Kind(Enum):
    INTEGER = "integer"
    ZERO_CLASS = "zero_class"
    NONZERO_CLASS = "nonzero_class"
    UNKNOWN = "unknown"


class P1Data(NamedTuple):
    """First Pontrjagin class data.

    INTEGER carries the pairing <p1, [M]> of an oriented 4-manifold; the
    class kinds track only whether p1 vanishes as a cohomology class.
    Integer(0) and ZERO_CLASS are interchangeable for decisions on oriented
    4-manifolds.
    """

    kind: P1Kind
    number: int | None = None
    note: str = ""

    @staticmethod
    def integer(k: int, note: str = "") -> "P1Data":
        return P1Data(P1Kind.INTEGER, int(k), note)

    @staticmethod
    def zero_class(note: str = "") -> "P1Data":
        return P1Data(P1Kind.ZERO_CLASS, None, note)

    @staticmethod
    def nonzero_class(note: str = "") -> "P1Data":
        return P1Data(P1Kind.NONZERO_CLASS, None, note)

    @staticmethod
    def unknown(note: str = "") -> "P1Data":
        return P1Data(P1Kind.UNKNOWN, None, note)

    @property
    def is_known_zero(self) -> bool:
        return self.kind is P1Kind.ZERO_CLASS or (
            self.kind is P1Kind.INTEGER and self.number == 0
        )

    @property
    def is_known_nonzero(self) -> bool:
        return self.kind is P1Kind.NONZERO_CLASS or (
            self.kind is P1Kind.INTEGER and self.number != 0
        )

    @property
    def is_unknown(self) -> bool:
        return self.kind is P1Kind.UNKNOWN

    def __str__(self) -> str:
        if self.kind is P1Kind.INTEGER:
            return str(self.number)
        return {
            P1Kind.ZERO_CLASS: "zero class",
            P1Kind.NONZERO_CLASS: "nonzero class",
            P1Kind.UNKNOWN: "unknown",
        }[self.kind]


def p1_negate(p: P1Data) -> P1Data:
    if p.kind is P1Kind.INTEGER:
        return P1Data.integer(-p.number, p.note)
    return p


def p1_add(a: P1Data, b: P1Data) -> P1Data:
    """Status of two p1 contributions living in complementary summands.

    Componentwise: one nonzero component makes the whole class nonzero no
    matter what the other one is, and nothing ever cancels.  Genuinely
    additive situations (degree 4, where both classes share one group)
    need their own casework and must not come through here.
    """
    if a.is_known_nonzero or b.is_known_nonzero:
        return P1Data.nonzero_class("nonzero in one summand")
    if a.is_known_zero and b.is_known_zero:
        return P1Data.zero_class("both summands vanish")
    return P1Data.unknown("insufficient integral data")


def p1_difference(a: P1Data, b: P1Data) -> P1Data:
    """Status of p1(alpha - beta) for a virtual difference bundle.

    Unlike p1_add, opposite nonzero contributions may cancel here.
    """
    if a.kind is P1Kind.INTEGER and b.kind is P1Kind.INTEGER:
        return P1Data.integer(a.number - b.number)
    if a.kind is P1Kind.INTEGER and b.is_known_zero:
        return P1Data.integer(a.number)
    if b.kind is P1Kind.INTEGER and a.is_known_zero:
        return P1Data.integer(-b.number)
    if a.is_known_zero and b.is_known_zero:
        return P1Data.zero_class("both terms vanish")
    if a.is_known_nonzero and b.is_known_zero:
        return P1Data.nonzero_class("first term nonzero, second zero")
    if b.is_known_nonzero and a.is_known_zero:
        return P1Data.nonzero_class("second term nonzero, first zero")
    return P1Data.unknown("possible cancellation or missing data")
