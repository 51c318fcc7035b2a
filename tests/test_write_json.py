"""The one-pass JSON writer against the stdlib encoder it replaces.

``bench.write_json`` must write exactly ``json.dumps(_json_safe(obj),
sort_keys=True, indent=2) + "\\n"``; the stdlib call stays here as the
reference.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from infopath.bench import _encode_json, _json_safe, write_json


def reference(obj) -> str:
    return json.dumps(_json_safe(obj), sort_keys=True, indent=2) + "\n"


@dataclass(frozen=True)
class Pair:
    name: str
    value: object


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1)

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(),  # nan and the infinities included
    st.sampled_from(SPECIAL_FLOATS),
    st.text(),  # non-ASCII, quotes and control characters included
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=-2**63, max_value=2**63 - 1).map(np.int64),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=3)),
    hnp.arrays(np.int64, st.integers(0, 4)),
    st.frozensets(st.integers(-50, 50), max_size=5),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=5),
        st.builds(Pair, st.text(max_size=8), children),
    )


documents = st.recursive(leaves, containers, max_leaves=40)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=documents)
def test_writer_matches_stdlib_encoder(obj, tmp_path):
    path = write_json(obj, tmp_path / "out.json")
    assert path.read_bytes() == reference(obj).encode("ascii")


def test_writer_flushes_long_documents_in_chunks():
    rng = np.random.default_rng(0)
    doc = {"records": [{"x": float(v), "i": i, "s": f"step {i}", "pair": [i, -i]}
                       for i, v in enumerate(rng.normal(size=3000))]}
    chunks = []
    _encode_json(doc, chunks.append)
    assert len(chunks) > 1
    assert "".join(chunks) == reference(doc)


@pytest.mark.parametrize("bad", [
    {"a": [1.0, object()]},  # an unknown type deep inside
    {"a": {1, 2}},  # a set is not a frozenset
    {"a": {1: "int key"}},  # keys must be strings
])
def test_unencodable_value_leaves_no_file(bad, tmp_path):
    with pytest.raises(TypeError):
        write_json(bad, tmp_path / "new.json")
    kept = tmp_path / "kept.json"
    kept.write_text("old\n")
    with pytest.raises(TypeError):
        write_json(bad, kept)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json"]
    assert kept.read_text() == "old\n"
