"""The runner's payload copy (``runner._copy``) against ``copy.deepcopy``:
equal values, the same container types and key order, no shared mutable
state with the original, and ``deepcopy``'s result for whatever marshal
refuses."""

from __future__ import annotations

import collections
import copy
import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmproto.runner import _copy

_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
)
_values = st.recursive(
    _leaves,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=24,
)


def _shape(value):
    """``value`` with every container's exact type and every dict's key
    order spelled out, and every leaf as its type and ``repr``."""
    if type(value) is dict:
        return ("dict", [(_shape(k), _shape(v)) for k, v in value.items()])
    if type(value) in (list, tuple):
        return (type(value).__name__, [_shape(v) for v in value])
    return (type(value).__name__, repr(value))


def _containers(value):
    """Every list and dict inside ``value``, itself included."""
    found, stack = [], [value]
    while stack:
        node = stack.pop()
        if type(node) is dict:
            found.append(node)
            stack.extend(node.values())
        elif type(node) in (list, tuple):
            if type(node) is list:
                found.append(node)
            stack.extend(node)
    return found


def _check_copy(value) -> None:
    before = _shape(value)
    copied = _copy(value)
    assert copied == value
    assert _shape(copied) == _shape(copy.deepcopy(value)) == before
    for node in _containers(copied):
        if type(node) is dict:
            node[object()] = None
        else:
            node.append(object())
    assert _shape(value) == before


@settings(max_examples=400, deadline=None)
@given(_values)
def test_copy_matches_deepcopy_on_json_like_values(value) -> None:
    _check_copy(value)


def test_copy_keeps_a_shared_sub_list_shared() -> None:
    shared = [1, "x"]
    copied = _copy({"a": shared, "b": shared})
    assert copied["a"] is copied["b"]
    assert copied["a"] is not shared


def test_copy_keeps_a_self_referencing_list_self_referencing() -> None:
    loop: list = [1]
    loop.append(loop)
    copied = _copy(loop)
    assert copied is not loop and copied[1] is copied


class _Level(enum.IntEnum):
    LOW = 1


class _Tag(str):
    pass


class _Plain:
    def __init__(self) -> None:
        self.scores = [1, 2]


@pytest.mark.parametrize("make", [
    lambda: _Level.LOW,
    lambda: _Tag("agv1"),
    lambda: collections.OrderedDict([("b", [1]), ("a", [2])]),
    lambda: _Plain(),
], ids=["IntEnum", "str-subclass", "OrderedDict", "plain-instance"])
def test_copy_of_what_marshal_refuses_is_deepcopy(make) -> None:
    value = make()
    alone = (_copy(value), copy.deepcopy(value))
    wrapped = {"nested": [value]}
    nested = [c["nested"][0] for c in (_copy(wrapped), copy.deepcopy(wrapped))]
    for copied, expected in (alone, nested):
        assert type(copied) is type(expected)
        assert (copied is value) == (expected is value)
        if isinstance(value, _Plain):
            assert vars(copied) == vars(expected) and copied.scores is not value.scores
        else:
            assert copied == expected


def test_copy_of_a_too_deep_list_still_raises_recursion_error() -> None:
    deep: list = []
    for _ in range(2500):
        deep = [deep]
    with pytest.raises(RecursionError):
        _copy(deep)


def test_copy_makes_new_float_leaves_so_nan_payloads_compare_unequal() -> None:
    payload = [float("nan")]
    assert copy.deepcopy(payload) == payload  # the same NaN object: identity shortcut
    assert _copy(payload) != payload
