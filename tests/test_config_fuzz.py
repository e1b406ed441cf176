"""Property test: every config dataclass either accepts a value or rejects
it with a ValueError that names ``Class.field``; no other error escapes."""

from __future__ import annotations

import dataclasses
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from lanetopo import assoc, detstrat, metrics, synthgen, topoheads  # noqa: E402

CONFIGS = [
    topoheads.HeadConfig,
    assoc.CostConfig,
    metrics.DetMatchConfig,
    synthgen.GeneratorConfig,
    synthgen.NoiseModel,
    detstrat.ResampleConfig,
    detstrat.TtaConfig,
]

SCALARS = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1.0]),
    st.booleans(),
    st.text("0123456789.,-+eEinfa ", max_size=5),  # numeric-looking text, e.g. "0.3" or "inf"
    st.none(),
)
VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4).map(tuple), st.lists(SCALARS, max_size=4))


def _no_bool_or_text(value) -> bool:
    items = value if isinstance(value, tuple) else (value,)
    return not any(isinstance(v, (bool, str)) for v in items)


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_config_accepts_or_names_the_field(cls):
    names = [f.name for f in dataclasses.fields(cls)]

    @hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.dictionaries(st.sampled_from(names), VALUES, max_size=len(names)))
    def check(kwargs):
        try:
            cfg = cls(**kwargs)
        except ValueError as exc:
            named = re.findall(rf"\b{cls.__name__}\.(\w+)", str(exc))
            assert named and named[0] in names, str(exc)
            return
        assert all(_no_bool_or_text(getattr(cfg, name)) for name in names)

    check()
