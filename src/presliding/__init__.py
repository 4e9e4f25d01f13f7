"""Pre-sliding friction hysteresis: Dahl oscillator, reversal energy calculus,
decay-cycle prediction, and the brute-force oracles that certify them.

The root exports no names: each public name is imported from its defining
module, for example ``from presliding.oscillator import simulate``.
"""

__version__ = "0.1.0"
