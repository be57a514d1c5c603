"""Symbolic verification of commutator subgroups of braid-like groups."""
