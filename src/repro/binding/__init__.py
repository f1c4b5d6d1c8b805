"""Binding: operations to arithmetic units."""

from .binder import BoundDataflowGraph, bind

__all__ = [
    "BoundDataflowGraph",
    "bind",
]
