"""Property check of ``pose_io._dump`` against the standard library.

Runs only where hypothesis is installed; the seeded corpus in
``test_pose_io.py`` covers the same contract without it.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gaitnorm.pose_io import _dump  # noqa: E402

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
    assert _dump(doc) == (json.dumps(doc, sort_keys=True, indent=1)
                          + "\n").encode()
