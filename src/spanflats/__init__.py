"""Exact-arithmetic enumeration of spanned flats and bichromatic
point-hyperplane incidences, plus the extremal constructions and counting
formulas they are checked against."""

__version__ = "0.1.0"
