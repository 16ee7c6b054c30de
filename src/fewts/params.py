"""Flat parameter vectors with a named layout.

All trainable parameters of a model live in one contiguous float64 vector so
that optimizer steps and meta-updates are plain elementwise arithmetic on
``ParamSet.values``. A ``Layout`` lists the named (shape, offset) records of
that vector; callers that combine two ``ParamSet`` objects compare their
layouts first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Elementwise passes over a flat vector (the Adam step, the meta-update) run
# in blocks of this many entries, so that their scratch stays in cache. On a
# 2-vCPU x86 host at 2.03M parameters, 1 << 14 was faster than 1 << 12 and
# 1 << 16 for both.
CACHE_BLOCK = 1 << 14


@dataclass(frozen=True)
class LayoutRecord:
    name: str
    shape: tuple[int, ...]
    offset: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


class Layout:
    """Ordered collection of named parameter records, laid out back to back
    in the order given."""

    def __init__(self, shapes: list[tuple[str, tuple[int, ...]]]):
        records, offset = [], 0
        for name, shape in shapes:
            records.append(LayoutRecord(name, tuple(int(s) for s in shape), offset))
            offset += records[-1].size
        if len({r.name for r in records}) != len(records):
            raise ConfigError("duplicate record names in layout")
        self.records = tuple(records)
        self.total_size = offset

    def __eq__(self, other) -> bool:
        return isinstance(other, Layout) and self.records == other.records


class ParamSet:
    """A layout plus one flat float64 value vector."""

    def __init__(self, layout: Layout, values: np.ndarray | None = None):
        self.layout = layout
        if values is None:
            values = np.zeros(layout.total_size, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1 or values.shape[0] != layout.total_size:
            raise ConfigError(
                f"value vector has length {values.shape}, layout wants {layout.total_size}"
            )
        self.values = values

    def copy(self) -> "ParamSet":
        return ParamSet(self.layout, self.values.copy())
