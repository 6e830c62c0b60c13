"""The report writer against json.dumps(v, indent=2, sort_keys=True)."""

import json

import pytest
from hypothesis import example, given, strategies as st

from plucker_lab.corpus import to_json

# escapes, control characters, non-ASCII (two-byte, astral, a lone
# surrogate) and plain characters
_chars = st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé \U0001f600\ud800') | st.characters()
_text = st.text(_chars, max_size=8)
_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(min_value=2**64, max_value=2**200)
    | _text
)
_values = st.recursive(
    _leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_text, kids, max_size=4),
    max_leaves=24,
)


@given(_values)
@example({})
@example([])
@example(())
@example({"": {"": [[], {}, ()]}, "a": -1, "b": (True, False, None)})
def test_writer_matches_json_dumps(value):
    assert to_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [{1, 2}, 1.5, {"a": [0.0]}, [frozenset()], {"a": {1: 2}}, object()],
)
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        to_json(value)
