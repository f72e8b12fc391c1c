"""nullcover: exact finite-depth covering constructions for compact
nullsets in abelian groups, with certified translates, a factorial-base
nullset, and a symbolic duality pipeline.

The package root exports nothing, so importing it loads no submodule;
import ``nullcover.cover``, ``nullcover.groups``, ``nullcover.nullset``,
``nullcover.structure`` or ``nullcover.errors`` for what you need."""

__version__ = "0.1.0"
