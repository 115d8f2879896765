import pytest
from hypothesis import given, settings, strategies as st

from levyfv.errors import ConfigParse, config_number

# what a JSON config or a caller may hand over: ints past the doubles and
# non-finite floats included
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2 ** 1024, 2 ** 1100), st.integers(-2 ** 1100, -2 ** 1024),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(val=_VALUES)
def test_config_number_reads_ints_and_floats_only(val):
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        try:
            expected = float(val)
        except OverflowError:      # an int beyond the doubles
            expected = None
        if expected is not None:
            # repr tells a float from an int, -0.0 from 0.0 and matches NaN
            assert repr(config_number(val, "key")) == repr(expected)
            return
    with pytest.raises(ConfigParse, match="key must be a number"):
        config_number(val, "key")
