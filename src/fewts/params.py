"""Flat parameter vectors with a named layout.

All trainable parameters of a model live in one contiguous float64 vector so
that optimizer steps and meta-updates are plain elementwise arithmetic on
``ParamSet.values``. A ``Layout`` maps record names to (shape, offset) slices
of that vector; callers that combine two ``ParamSet`` objects compare their
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
    """Ordered collection of named parameter records."""

    def __init__(self, records: list[LayoutRecord]):
        self.records = tuple(records)
        self._by_name = {r.name: r for r in self.records}
        if len(self._by_name) != len(self.records):
            raise ConfigError("duplicate record names in layout")
        expected = 0
        for r in self.records:
            if r.offset != expected:
                raise ConfigError(f"record {r.name!r} offset {r.offset} != {expected}")
            expected += r.size
        self.total_size = expected

    @classmethod
    def from_shapes(cls, shapes: list[tuple[str, tuple[int, ...]]]) -> "Layout":
        records, offset = [], 0
        for name, shape in shapes:
            rec = LayoutRecord(name, tuple(int(s) for s in shape), offset)
            records.append(rec)
            offset += rec.size
        return cls(records)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> LayoutRecord:
        return self._by_name[name]

    def __eq__(self, other) -> bool:
        return isinstance(other, Layout) and self.records == other.records

    def __hash__(self):
        return hash(self.records)


class ParamSet:
    """A layout plus one flat float64 value vector.

    ``get`` returns a reshaped view, so in-place writes through it update the
    flat vector; use ``set`` for whole-record assignment with a shape check.
    """

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

    def get(self, name: str) -> np.ndarray:
        rec = self.layout[name]
        return self.values[rec.offset : rec.offset + rec.size].reshape(rec.shape)

    def set(self, name: str, arr: np.ndarray) -> None:
        rec = self.layout[name]
        arr = np.asarray(arr, dtype=np.float64)
        if arr.shape != rec.shape:
            raise ConfigError(f"record {name!r} expects shape {rec.shape}, got {arr.shape}")
        self.values[rec.offset : rec.offset + rec.size] = arr.ravel()

    def copy(self) -> "ParamSet":
        return ParamSet(self.layout, self.values.copy())
