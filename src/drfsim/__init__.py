"""drfsim: degradation of a spin-j directional reference frame.

A small numpy toolkit that iterates the exact measurement channel of a
spin-j frame used to measure maximally mixed qubits, evaluates the closed
form of its fidelity decay, runs the matching semi-classical random walk on
the sphere, and probes whether the evolved states remain mixtures of spin
coherent states.
"""

# The star imports are deliberate: each module's __all__ bounds what it
# exports, and the package's __all__ is those lists, declared nowhere else.
# Importing a submodule also binds its name here, which the lists below read.
from .angular_momentum import *
from .classical_walk import *
from .coherent_analysis import *
from .errors import *
from .quantum_drf import *

__version__ = "0.1.0"

__all__ = ["__version__", *angular_momentum.__all__, *classical_walk.__all__,
           *coherent_analysis.__all__, *errors.__all__, *quantum_drf.__all__]
