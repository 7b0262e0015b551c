"""Property tests: claims checked on drawn inputs rather than on a fixed
list of cases.  Examples are drawn deterministically (the conftest
profile), so a failure reproduces on every run."""

import numpy as np
import pytest

from deltanabla import TimeScale, delta_derivative, hat_variation, nabla_derivative, variation_constraint_matrix

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.given(
    start=st.floats(-5.0, 5.0),
    gaps=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=79),
)
def test_constraint_matrix_is_the_hat_by_hat_rows_bit_for_bit(start, gaps):
    ts = TimeScale(start + np.concatenate([[0.0], np.cumsum(gaps)]))
    for kind, derivative in (("delta", delta_derivative), ("nabla", nabla_derivative)):
        rows = [ts.gaps() * derivative(hat_variation(ts, j)).values for j in range(1, len(ts) - 1)]
        assert np.array_equal(variation_constraint_matrix(ts, kind), np.array(rows))
