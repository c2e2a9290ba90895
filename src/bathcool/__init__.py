"""bathcool: cooling a mechanical mode by optomechanically modifying its bath.

A simulator and design toolkit for the coupled-oscillator cooling scheme:
closed-form rotating-wave analytics, an exact linear-Langevin
frequency-domain solver, parameter sweeps/optimization, and the
beam-resonator design formulas that realize the scheme.
"""

__version__ = "0.1.0"

from .analytics import *
from .design import *
from .model import *
from .spectra import *
from .sweeps import *
