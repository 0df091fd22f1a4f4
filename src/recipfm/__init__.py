"""Numerical verification engine for reciprocal transformations of diagonal
hydrodynamic systems and the flat connections they carry."""

__version__ = "0.1.0"
