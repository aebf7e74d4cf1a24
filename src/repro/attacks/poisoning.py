"""Training-data poisoning campaigns (paper sec IV, adversarial ML).

"Attacks in this area include attempts to poison data used for training,
obfuscating features of data used for training, denying access to selected
sets of data".  A :class:`PoisoningCampaign` transforms a clean labelled
stream into a poisoned one, supporting the three attack styles the paper
lists: label flipping, feature obfuscation (shifting/noising), and data
denial (dropping selected samples).  Deterministic per seed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import AttackError
from repro.sim.rng import SeededRNG

#: A labelled sample: (feature tuple, label in {+1, -1}).
Sample = tuple

_MODES = ("label_flip", "feature_shift", "denial")


class PoisoningCampaign:
    """Deterministic poisoning of a labelled sample stream."""

    def __init__(
        self,
        rate: float,
        mode: str = "label_flip",
        seed: int = 0,
        feature_shift: float = 5.0,
        target_label: Optional[int] = None,
    ):
        """``rate`` is the fraction of samples touched.  ``target_label``
        restricts poisoning to samples of one true label (a targeted
        attack); ``None`` poisons indiscriminately."""
        if not 0.0 <= rate <= 1.0:
            raise AttackError("poison rate must be in [0, 1]")
        if mode not in _MODES:
            raise AttackError(f"mode must be one of {_MODES}, got {mode!r}")
        self.rate = rate
        self.mode = mode
        self.feature_shift = feature_shift
        self.target_label = target_label
        self._rng = SeededRNG(seed, f"poison/{mode}")
        self.poisoned_indices: list[int] = []

    def apply(self, samples: Sequence[Sample]) -> list[Sample]:
        """Return the poisoned stream; indices touched land in
        :attr:`poisoned_indices` (ground truth for defense scoring)."""
        self.poisoned_indices = []
        poisoned: list[Sample] = []
        for index, (features, label) in enumerate(samples):
            eligible = self.target_label is None or label == self.target_label
            if not (eligible and self._rng.chance(self.rate)):
                poisoned.append((features, label))
                continue
            self.poisoned_indices.append(index)
            if self.mode == "label_flip":
                poisoned.append((features, -label))
            elif self.mode == "feature_shift":
                direction = -label  # push features across the boundary
                shifted = tuple(
                    float(x) + direction * self.feature_shift for x in features
                )
                poisoned.append((shifted, label))
            else:  # denial: the sample never reaches the learner
                continue
        return poisoned

    @property
    def poisoned_count(self) -> int:
        return len(self.poisoned_indices)
