"""The effect report that both the engine and the oracle fill."""

from __future__ import annotations

from .tables import _Record, _set


class EffectsReport(_Record):
    """All odds-ratio effects for one direction of change in X.

    ``lde`` and ``cell`` are indexed by z.  ``source`` names who computed
    the values when it is not the engine (the oracle sets ``"oracle"``);
    ``to_dict`` emits it only when set.
    """

    __slots__ = ("te", "lde", "cell", "ie", "ie_reverse", "nde",
                 "additive_interaction", "multiplicative_interaction",
                 "decomposition_residual", "direction", "source")

    def __init__(self, te: float, lde: tuple, cell: tuple, ie: float,
                 ie_reverse: float, nde: float, additive_interaction: float,
                 multiplicative_interaction: float,
                 decomposition_residual: float, direction: tuple = (0, 1),
                 source: str | None = None):
        _set(self, "te", te)
        _set(self, "lde", lde)
        _set(self, "cell", cell)
        _set(self, "ie", ie)
        _set(self, "ie_reverse", ie_reverse)
        _set(self, "nde", nde)
        _set(self, "additive_interaction", additive_interaction)
        _set(self, "multiplicative_interaction", multiplicative_interaction)
        _set(self, "decomposition_residual", decomposition_residual)
        _set(self, "direction", direction)
        _set(self, "source", source)

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
