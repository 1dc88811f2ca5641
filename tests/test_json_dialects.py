"""The prebuilt JSON encoders write what the ``json.dumps`` calls they
replaced wrote, byte for byte: every digest, journal line, store row and
API body rests on these bytes."""

from __future__ import annotations

import json
import math

from hypothesis import given
from hypothesis import strategies as st

from repro.core.cache import ResultCache, canonical_json, sorted_json
from repro.core.fault import canonical

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 1.5, math.nan, math.inf,
                     -math.inf]),
)
TEXT = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", 'a "quoted" \\ word', "naïve", "日本",
                     "\x00\x1f", "😀", " "]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**70, 2**70),
    FLOATS, TEXT,
)
#: JSON-shaped values as the callers build them: str-keyed or int-keyed
#: objects, lists and tuples, nested.
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(TEXT, inner, max_size=5),
        st.dictionaries(st.integers(), inner, max_size=5),
    ),
    max_leaves=25,
)


def _same(encode, dumps, value) -> None:
    """Equal bytes, or the same exception type where ``dumps`` raises."""
    try:
        expected = dumps(value)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        try:
            encode(value)
        except type(exc):
            return
        raise AssertionError(f"{dumps} raised {exc!r}, the encoder did not")
    assert encode(value) == expected


@given(VALUES)
def test_canonical_json_is_the_compact_sorted_dumps(value):
    _same(canonical_json,
          lambda v: json.dumps(v, sort_keys=True, separators=(",", ":")),
          value)


@given(VALUES)
def test_sorted_json_is_the_sorted_dumps(value):
    _same(sorted_json, lambda v: json.dumps(v, sort_keys=True), value)


@given(st.dictionaries(st.one_of(TEXT, st.integers()), VALUES, max_size=4))
def test_mixed_key_objects_fail_alike(value):
    _same(canonical_json,
          lambda v: json.dumps(v, sort_keys=True, separators=(",", ":")),
          value)
    _same(sorted_json, lambda v: json.dumps(v, sort_keys=True), value)


@given(
    target_id=TEXT,
    subspace=TEXT,
    attributes=st.lists(st.tuples(TEXT, VALUES), max_size=6).map(tuple),
    trial=st.integers(0, 10),
    step_budget=st.integers(1, 10**9),
)
def test_key_for_is_the_compact_dumps(
        target_id, subspace, attributes, trial, step_budget):
    assert ResultCache.key_for(
        target_id, subspace, attributes, trial, step_budget,
    ) == json.dumps(
        [
            target_id,
            subspace,
            [[name, canonical(value)] for name, value in attributes],
            trial,
            step_budget,
        ],
        separators=(",", ":"),
    )
