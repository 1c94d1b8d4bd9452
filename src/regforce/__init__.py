"""regforce: an adversary engine for anonymous shared-memory consensus.

Feeds concrete algorithm specifications to the covering/valency machinery
behind the space lower bounds for anonymous consensus: it either builds
certified execution chains forcing distinct registers to be written, or
extracts replayable traces breaking agreement, validity, or solo
termination.
"""

__version__ = "0.1.0"
