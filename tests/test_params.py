import numpy as np
import pytest

from fewts.errors import ConfigError
from fewts.params import Layout, ParamSet


def make_layout():
    return Layout.from_shapes([("w", (2, 3)), ("b", (2,)), ("g", (4,))])


def test_layout_offsets_and_size():
    layout = make_layout()
    assert layout.total_size == 12
    assert layout["w"].offset == 0
    assert layout["b"].offset == 6
    assert layout["g"].offset == 8
    assert [r.name for r in layout.records] == ["w", "b", "g"]


def test_duplicate_names_rejected():
    with pytest.raises(ConfigError):
        Layout.from_shapes([("w", (2,)), ("w", (3,))])


def test_get_returns_writable_view():
    ps = ParamSet(make_layout())
    ps.get("b")[:] = [1.0, 2.0]
    assert ps.values[6] == 1.0 and ps.values[7] == 2.0


def test_set_checks_shape():
    ps = ParamSet(make_layout())
    with pytest.raises(ConfigError):
        ps.set("w", np.zeros((3, 2)))


def test_copy_is_independent():
    ps = ParamSet(make_layout())
    c = ps.copy()
    c.values[0] = 5.0
    assert ps.values[0] == 0.0


def test_wrong_vector_length_rejected():
    with pytest.raises(ConfigError):
        ParamSet(make_layout(), np.zeros(11))
