"""Liveness properties of the plain-Python frontend."""

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import live_after_each, names_read


# --- property-based liveness checks --------------------------------------

_VARS = "abcdef"


@st.composite
def straight_line_bodies(draw):
    """Random chains of 'x = y + z' statements ending in a return."""
    k = draw(st.integers(min_value=1, max_value=8))
    lines = []
    defined = {"a"}
    for i in range(k):
        target = draw(st.sampled_from(_VARS))
        lhs = draw(st.sampled_from(sorted(defined)))
        rhs = draw(st.sampled_from(sorted(defined)))
        lines.append(f"{target} = {lhs} + {rhs}")
        defined.add(target)
    lines.append(f"__out__ = {draw(st.sampled_from(sorted(defined)))}")
    return lines


@given(straight_line_bodies())
@settings(max_examples=80, deadline=None)
def test_liveness_matches_brute_force(lines):
    body = ast.parse("\n".join(lines)).body
    live = live_after_each(body)
    for index in range(len(body)):
        # Brute force: a name is live after line i if some later line
        # reads it before (re)writing it.
        expected = set()
        killed = set()
        for later in body[index + 1:]:
            expected |= names_read(later) - killed
            from repro.frontend import names_written

            killed |= names_written(later)
        assert live[index] == expected


@given(straight_line_bodies())
@settings(max_examples=40, deadline=None)
def test_liveness_never_exceeds_defined_names(lines):
    body = ast.parse("\n".join(lines)).body
    for live in live_after_each(body):
        assert live <= set(_VARS) | {"a", "__out__"}
