"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from lingtruth.lattice import AlgebraConfig, LinguisticValue, Polarity

MAX_N = 10_000


@st.composite
def algebra_pairs(draw):
    """An LIA or QLIA config with n up to ``MAX_N`` and two of its values.
    Grades are drawn uniformly or from those that meet the chain ends and
    the non-comparable pair, which uniform draws at large n seldom hit."""
    n = draw(st.integers(0, MAX_N))
    noncomparable = draw(st.none() | st.integers(1, n - 1)) if n >= 2 else None
    special = {0, n} if noncomparable is None else {0, n, noncomparable, n - noncomparable}
    grades = st.integers(0, n) | st.sampled_from(sorted(special))
    value = st.builds(LinguisticValue, grades, st.sampled_from(Polarity))
    return AlgebraConfig(n, noncomparable), draw(value), draw(value)
