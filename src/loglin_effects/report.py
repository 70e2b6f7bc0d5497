"""The effect report that both the engine and the oracle fill."""

from __future__ import annotations

from .tables import _Record


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
