"""Parameter-tree helpers.

Model parameters live in nested dataclasses holding numpy arrays.  One
walker visits every array (or, in a bound tree, every tensor) under its
dotted name.  The helpers below use it to flatten a tree (for the
optimizer, checkpoints and parameter counting), to clone it with every
array registered as a leaf on a tape (for one forward/backward pass; a
forward without a tape takes the arrays as they are), and to swap in
given leaves; no helper writes into a tree's arrays.  :func:`is_bound`
tells a bound tree from an array tree by its first leaf, without a walk.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .tensor import Tape, Tensor

__all__ = ["named_arrays", "named_tensors", "is_bound", "bind", "with_leaves"]


@functools.cache
def _field_names(cls) -> "tuple[str, ...] | None":
    if dataclasses.is_dataclass(cls):
        return tuple(f.name for f in dataclasses.fields(cls))
    return None


def _map(obj, fn, prefix: str = ""):
    """Rebuild a tree with each ndarray or Tensor replaced by ``fn(name, leaf)``.

    Only dataclasses, lists and tuples are descended into; scalars,
    strings and None are configuration, not parameters, and are kept.  A
    subtree whose leaves all come back unchanged is returned as is, so a
    walk that only reads builds nothing.
    """
    if isinstance(obj, (np.ndarray, Tensor)):
        return fn(prefix, obj)
    if isinstance(obj, (list, tuple)):
        new = [_map(v, fn, f"{prefix}.{i}" if prefix else str(i)) for i, v in enumerate(obj)]
        if all(a is b for a, b in zip(new, obj)):
            return obj
        return tuple(new) if isinstance(obj, tuple) else new
    names = _field_names(type(obj))
    if names is None:
        return obj
    changed = {}
    for name in names:
        old = getattr(obj, name)
        new = _map(old, fn, f"{prefix}.{name}" if prefix else name)
        if new is not old:
            changed[name] = new
    return dataclasses.replace(obj, **changed) if changed else obj


def _collect(obj, prefix: str, kind) -> list:
    out = []

    def visit(name, leaf):
        if isinstance(leaf, kind):
            out.append((name, leaf))
        return leaf

    _map(obj, visit, prefix)
    return out


def named_arrays(obj, prefix: str = "") -> list[tuple[str, np.ndarray]]:
    """Flatten every ndarray in a nested structure to (dotted-name, array)."""
    return _collect(obj, prefix, np.ndarray)


def named_tensors(obj, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Flatten every Tensor in a bound tree; names mirror named_arrays."""
    return _collect(obj, prefix, Tensor)


def _first_leaf(obj):
    """The first ndarray or Tensor of a tree in the walker's order, or None."""
    if isinstance(obj, (np.ndarray, Tensor)):
        return obj
    children = obj if isinstance(obj, (list, tuple)) else \
        [getattr(obj, name) for name in _field_names(type(obj)) or ()]
    return next((leaf for c in children if (leaf := _first_leaf(c)) is not None), None)


def is_bound(obj) -> bool:
    """Whether a tree's leaves are Tensors: :func:`bind` and :func:`with_leaves`
    leave every leaf of one kind, so its first leaf tells."""
    return isinstance(_first_leaf(obj), Tensor)


def bind(obj, tape: Tape):
    """Clone a parameter tree with each ndarray registered on ``tape``.

    A forward without a tape needs no binding: every op takes the arrays
    as they are.  Tensors are passed through, so binding a bound tree
    returns it.
    """
    return _map(obj, lambda _, leaf: tape.leaf(leaf) if isinstance(leaf, np.ndarray) else leaf)


def with_leaves(obj, table: dict):
    """Clone a tree with each array replaced by ``table[dotted-name]``."""
    return _map(obj, lambda name, _: table[name])
