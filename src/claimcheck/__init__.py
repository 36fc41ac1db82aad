"""Claim verification: retrieve evidence, generate verdicts, score them."""

__version__ = "0.1.0"
