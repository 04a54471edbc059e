"""Property check of ``pose_io._dump``: every document is compact
canonical JSON and decodes to what the pre-0.9.0 indented writer's bytes
decoded to.

Runs only where hypothesis is installed; the seeded corpus in
``test_pose_io.py`` covers the same contract without it.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm.pose_io import _dump  # noqa: E402

from helpers import json_structure, object_keys, same_json  # noqa: E402

_scalars = (st.none() | st.booleans() | st.integers()
            | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_documents = st.recursive(
    _scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.tuples(inner, inner)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


@hypothesis.given(_documents)
def test_dump_matches_stdlib(doc):
    data = _dump(doc)
    text = data.decode("ascii")
    assert text.endswith("\n")
    # no whitespace between tokens, read without the json module
    assert not set(json_structure(text[:-1])) & set(" \t\r\n")
    for keys in object_keys(data):
        assert keys == sorted(keys)
    indented = (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode()
    assert same_json(json.loads(data), json.loads(indented))
