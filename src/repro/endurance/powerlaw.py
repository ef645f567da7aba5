"""The power-law endurance/current relationship (paper Eq. 1).

Equation 1 of the paper:

.. math::

    E(I) = 10^8 \\times (I^2 \\cdot R \\cdot T)^{-6}

where ``I`` is the programming current, ``R`` the cell resistance and ``T``
the write pulse width (both constants).  Because the paper only uses the
*relative* endurance between domains, the absolute scale of ``R * T`` is
free; we choose the default so that a cell programmed at the nominal mean
current ``I = 0.3 mA`` has the canonical PCM endurance of ``1e8`` writes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.validation import require_positive

#: Nominal mean programming current from the paper's setup (mA).
NOMINAL_CURRENT_MA: float = 0.3

#: Canonical PCM cell endurance at the nominal current (writes).
NOMINAL_ENDURANCE: float = 1e8

#: The power-law exponent on write energy from Eq. 1.
ENERGY_EXPONENT: float = -6.0


@dataclass(frozen=True)
class PowerLawEnduranceModel:
    """Endurance as a power law of programming current (Eq. 1).

    Parameters
    ----------
    scale:
        The ``10^8`` prefactor of Eq. 1.
    resistance_times_pulse:
        The product ``R * T``.  The default normalizes the model so that
        ``endurance(NOMINAL_CURRENT_MA) == scale``, i.e. a nominal cell
        endures ``1e8`` writes; only relative endurance matters downstream.
    exponent:
        The exponent applied to the write energy ``I^2 R T`` (−6 in Eq. 1,
        hence endurance ∝ I^−12).
    """

    scale: float = NOMINAL_ENDURANCE
    resistance_times_pulse: float = 1.0 / (NOMINAL_CURRENT_MA**2)
    exponent: float = ENERGY_EXPONENT

    def __post_init__(self) -> None:
        require_positive(self.scale, "scale")
        require_positive(self.resistance_times_pulse, "resistance_times_pulse")
        if self.exponent >= 0:
            raise ValueError(
                f"exponent must be negative (endurance falls with current), got {self.exponent}"
            )

    def endurance(self, current_ma: "float | np.ndarray") -> "float | np.ndarray":
        """Endurance E(I) for programming current(s) in mA (Eq. 1).

        Accepts a scalar or an array; currents must be strictly positive.
        """
        current = np.asarray(current_ma, dtype=float)
        if np.any(current <= 0):
            raise ValueError("programming current must be strictly positive")
        energy = np.square(current) * self.resistance_times_pulse
        result = self.scale * np.power(energy, self.exponent)
        if np.isscalar(current_ma) or np.ndim(current_ma) == 0:
            return float(result)
        return result

    def current_for_endurance(self, endurance: "float | np.ndarray") -> "float | np.ndarray":
        """Invert Eq. 1: the programming current that yields ``endurance``.

        Used by tests to verify the model is a bijection.
        """
        target = np.asarray(endurance, dtype=float)
        if np.any(target <= 0):
            raise ValueError("endurance must be strictly positive")
        energy = np.power(target / self.scale, 1.0 / self.exponent)
        current = np.sqrt(energy / self.resistance_times_pulse)
        if np.isscalar(endurance) or np.ndim(endurance) == 0:
            return float(current)
        return current

    @property
    def current_exponent(self) -> float:
        """Effective exponent on current (−12 for the paper's Eq. 1)."""
        return 2.0 * self.exponent
