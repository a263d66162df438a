"""Property of ``engine._class_sums``: a class sum's bits do not depend on
how many score columns share the call (E), on the rows that share it (the
row block) or on the classes that share it (the class chunk).

BLAS thread counts are fixed when numpy loads, so this runs as a script,
one process per ``OPENBLAS_NUM_THREADS`` value (see ``test_engine.py``):

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/class_sums_property.py

It exits 0 when the property holds and prints the falsifying example otherwise.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ape import engine

E_WIDEST = 24
E_NARROWER = (1, 2, 3, 8, 9, 11, 17)


def class_sums(aff, scores, c):
    return engine._class_sums(aff, engine._score_cols(scores, c), len(scores))


@settings(max_examples=300, deadline=None, database=None, suppress_health_check=list(HealthCheck))
@given(
    n=st.integers(1, 300),
    c=st.integers(1, 40),
    k=st.integers(1, 40),
    cut=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, c=1, k=1, cut=0.5, seed=0)  # one row: numpy sends the product to GEMV
@example(n=2, c=3, k=1, cut=0.5, seed=1)
@example(n=625, c=100, k=16, cut=0.5, seed=2)  # a desk tile
def column_bits_independent_of_e_rows_and_chunks(n, c, k, cut, seed):
    rng = np.random.default_rng(seed)
    aff = rng.random((n, c * k))
    scores = rng.random((E_WIDEST, c * k))
    want = class_sums(aff, scores, c)
    dense = np.einsum("nck,eck->enc", aff.reshape(n, c, k), scores.reshape(-1, c, k))
    np.testing.assert_allclose(want, dense, rtol=1e-13)
    for e in E_NARROWER:
        got = class_sums(aff, scores[:e], c)
        assert got.tobytes() == want[:e].tobytes(), f"E={e}"
    # Row blocks as the tile plan makes them: no block of one row unless N = 1.
    if n >= 4:
        mid = min(max(2, round(cut * n)), n - 2)
        for rows in (slice(0, mid), slice(mid, n)):
            got = class_sums(aff[rows], scores[:3], c)
            assert got.tobytes() == want[:3, rows].tobytes(), f"rows {rows}"
    # Every class alone (a chunk of one class) and a run of whole classes.
    for j in range(c):
        got = class_sums(aff[:, k * j : k * j + k].copy(), scores[:, k * j : k * j + k], 1)
        assert got.tobytes() == want[:, :, j : j + 1].tobytes(), f"class {j}"
    lo = min(int(cut * c), c - 1)
    hi = lo + 1 + (c - lo - 1) // 2
    got = class_sums(aff[:, k * lo : k * hi].copy(), scores[:9, k * lo : k * hi], hi - lo)
    assert got.tobytes() == want[:9, :, lo:hi].tobytes(), f"classes {lo}:{hi}"


if __name__ == "__main__":
    column_bits_independent_of_e_rows_and_chunks()
