"""CRFS on the timing plane.

The same pipeline as :mod:`repro.core` — buffer pool, work queue, IO
threads, drain-on-close — expressed as simulated processes over the
modelled hardware, and driven by the *same* pure
:class:`~repro.pipeline.planner.WritePlanner`, so both planes provably
aggregate identically (see ``tests/test_cross_plane.py``).
"""

from .model import SimCRFS, SimCRFSFile
from .fuse import fuse_requests

__all__ = ["SimCRFS", "SimCRFSFile", "fuse_requests"]
