"""Finitely presented group workbench.

Words and generator maps, finite and stream-backed presentations with
certificate-producing triviality searches, a Britton-reduction solver for the
Baumslag-Solitar groups, budgeted isomorphism and subgroup-presentation
searches, certificate-checked Tietze moves, and the quotient-tower harness
built on all of it.
"""

__version__ = "0.1.0"
