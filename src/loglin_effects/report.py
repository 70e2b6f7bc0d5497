"""The effect report that both the engine and the oracle fill, and the
check of its direction that both make."""

from __future__ import annotations

import operator

from .tables import _Record


def _direction(x, xp) -> tuple:
    """``(x, xp)`` as plain ints; ``ValueError`` unless they are two
    distinct integer levels in {0, 1} (a bool or numpy integer is one)."""
    try:
        x, xp = operator.index(x), operator.index(xp)
    except TypeError:
        x = None  # a float or other non-integer level
    if x not in (0, 1) or xp not in (0, 1) or x == xp:
        raise ValueError("direction must be two distinct levels in {0, 1}")
    return x, xp


class EffectsReport(_Record):
    """All odds-ratio effects for one direction of change in X.

    ``lde`` and ``cell`` are indexed by z.  ``source`` names who computed
    the values when it is not the engine (the oracle sets ``"oracle"``);
    ``to_dict`` emits it only when set.
    """

    __slots__ = ()
    _fields = ("te", "lde", "cell", "ie", "ie_reverse", "nde",
               "additive_interaction", "multiplicative_interaction",
               "decomposition_residual", "direction", "source")

    def __new__(cls, te: float, lde: tuple, cell: tuple, ie: float,
                ie_reverse: float, nde: float, additive_interaction: float,
                multiplicative_interaction: float,
                decomposition_residual: float, direction: tuple = (0, 1),
                source: str | None = None):
        return tuple.__new__(cls, (
            te, lde, cell, ie, ie_reverse, nde, additive_interaction,
            multiplicative_interaction, decomposition_residual, direction,
            source,
        ))

    def to_dict(self) -> dict:
        doc = {
            "TE": self.te,
            "LDE": {"z0": self.lde[0], "z1": self.lde[1]},
            "cell": {"z0": self.cell[0], "z1": self.cell[1]},
            "IE": self.ie,
            "IE_reverse": self.ie_reverse,
            "NDE": self.nde,
            "additive_interaction": self.additive_interaction,
            "multiplicative_interaction": self.multiplicative_interaction,
            "decomposition_residual": self.decomposition_residual,
            "direction": list(self.direction),
        }
        if self.source is not None:
            doc["source"] = self.source
        return doc
