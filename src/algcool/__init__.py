"""Analytics and Monte Carlo simulation of heat-bath algorithmic cooling.

The package splits into closed-form analytics (:mod:`algcool.analytic`),
a reversible-gate register engine (:mod:`algcool.circuit`), the basic
compression subroutine (:mod:`algcool.compression`), the recursive
cooling scheduler (:mod:`algcool.cooling`), a seeded ensemble harness
(:mod:`algcool.ensemble`), and a CLI front end (:mod:`algcool.cli`).
Each module's ``__all__`` is its public API, re-exported here.
"""

from .analytic import *
from .circuit import *
from .compression import *
from .cooling import *
from .ensemble import *

__version__ = "0.1.0"
