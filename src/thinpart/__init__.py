"""Explicit discreteness constants for conjugated lattices, with a
desk-scale experimental harness for the drift and tail bounds behind them."""

__version__ = "0.1.0"
