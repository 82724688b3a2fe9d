"""Quantum perceptron toolkit.

Simulation, control design and training for the unitary quantum
perceptron: exact sigmoid gates on qubit registers, quasi-adiabatic
realization on an Ising qubit driven by a transverse-field ramp,
feed-forward networks trained classically, and synthesis of multiqubit
conditional gates from perceptron compositions.
"""

from .activation import *  # noqa: F403
from .control import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .register import *  # noqa: F403
from .network import *  # noqa: F403
from .training import *  # noqa: F403
from .synthesis import *  # noqa: F403

__version__ = "0.1.0"
