"""Planar Lombardi drawings: circular-arc edges with perfect angular resolution."""

from .geometry import INF, Arc, Circle, Line, Mobius

__all__ = ["INF", "Arc", "Circle", "Line", "Mobius"]
__version__ = "0.1.0"
