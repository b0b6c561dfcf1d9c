"""Simplicial-contagion SIR toolkit on hypergraphs.

Core objects: Hypergraph and its derived algebra (weighted adjacency,
triangle channel, directed-link index), synthetic generators, the
two-channel SIR Monte-Carlo process, cavity message passing with the
weighted non-backtracking operator, collective-influence seed selection,
and dataset ingestion.  Each module's ``__all__`` is the one list of its
public names; the package re-exports them all.
"""

from . import data_io, generators, hypergraph, influence, message_passing, sir
from .hypergraph import *  # noqa: F403
from .data_io import *  # noqa: F403
from .generators import *  # noqa: F403
from .influence import *  # noqa: F403
from .message_passing import *  # noqa: F403
from .sir import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*hypergraph.__all__, *generators.__all__, *sir.__all__, *data_io.__all__,
           *influence.__all__, *message_passing.__all__, "__version__"]
