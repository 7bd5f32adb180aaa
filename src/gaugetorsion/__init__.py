"""Exact computer algebra deciding torsion for PU(n) gauge groups over the 2-sphere.

The layers, bottom up: prime-field scalars and binomials (``fp``), sparse
polynomial rings (``polyring``), reduced powers and Milnor primitives
(``steenrod``), the characteristic-class ring with its restriction maps
(``chern``), the symbolic suspension engine (``suspension``), exact matrix
algebra (``matrices``), and the certified decision layer (``torsion``).
Each layer lists its public names in its own ``__all__``; the package
re-exports them all, in that order.
"""

from . import chern, fp, matrices, polyring, steenrod, suspension, torsion
from .chern import *
from .fp import *
from .matrices import *
from .polyring import *
from .steenrod import *
from .suspension import *
from .torsion import *

__version__ = "0.1.0"

__all__ = [
    *fp.__all__,
    *polyring.__all__,
    *steenrod.__all__,
    *chern.__all__,
    *suspension.__all__,
    *matrices.__all__,
    *torsion.__all__,
]
