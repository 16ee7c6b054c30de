import numpy as np
import pytest

from fewts.errors import ConfigError
from fewts.params import Layout, ParamSet


def make_layout():
    return Layout([("w", (2, 3)), ("b", (2,)), ("g", (4,))])


def test_layout_offsets_and_size():
    layout = make_layout()
    assert layout.total_size == 12
    assert [(r.name, r.shape, r.offset) for r in layout.records] == [
        ("w", (2, 3), 0), ("b", (2,), 6), ("g", (4,), 8)]


def test_duplicate_names_rejected():
    with pytest.raises(ConfigError):
        Layout([("w", (2,)), ("w", (3,))])


def test_copy_is_independent():
    ps = ParamSet(make_layout())
    c = ps.copy()
    c.values[0] = 5.0
    assert ps.values[0] == 0.0


def test_wrong_vector_length_rejected():
    with pytest.raises(ConfigError):
        ParamSet(make_layout(), np.zeros(11))
