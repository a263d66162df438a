"""Unit and property tests for channel scoring and selection."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ape import numkit, refine
from helpers import apply_mask, block_budget, unit_rows


def two_prototypes():
    return np.array([[1.0, 0.0], [0.6, 0.8]])


class TestInterClassSimilarity:
    def test_hand_expanded_two_class(self):
        s = refine.inter_class_similarity(two_prototypes())
        assert s.dtype == np.float64 and s.shape == (2,)
        np.testing.assert_allclose(s, [0.3, 0.0], atol=1e-15)

    def test_identical_prototypes_closed_form(self):
        # C copies of one prototype: S_k = ((C^2 - C) / C^2) * x_k^2
        for c in (2, 3, 5):
            x = np.array([0.6, 0.8])
            w = np.tile(x, (c, 1))
            s = refine.inter_class_similarity(w)
            expected = (c * c - c) / (c * c) * x**2
            np.testing.assert_allclose(s, expected, rtol=1e-12)

    def test_orthogonal_prototypes(self):
        s = refine.inter_class_similarity(np.eye(2))
        np.testing.assert_array_equal(s, [0.0, 0.0])

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(4)
        w = unit_rows(rng, 5, 7)
        s = refine.inter_class_similarity(w)
        c, d = w.shape
        expected = np.zeros(d)
        for i in range(c):
            for j in range(c):
                if i != j:
                    expected += w[i] * w[j]
        np.testing.assert_allclose(s, expected / (c * c), atol=1e-12)

    def test_requires_two_classes(self):
        with pytest.raises(ValueError):
            refine.inter_class_similarity([[1.0, 0.0]])

    def test_requires_unit_rows(self):
        with pytest.raises(ValueError):
            refine.inter_class_similarity([[2.0, 0.0], [0.0, 1.0]])


class TestInterClassVariance:
    def test_two_values(self):
        v = refine.inter_class_variance(two_prototypes())
        # channel 0: values (1, 0.6), mean 0.8 -> 0.04; channel 1: (0, 0.8) -> 0.16
        np.testing.assert_allclose(v, [0.04, 0.16], rtol=1e-12)

    def test_spec_channel_example(self):
        v = refine.inter_class_variance([[0.6], [0.8]])
        np.testing.assert_allclose(v, [0.01], rtol=1e-12)

    def test_constant_channel_is_zero(self):
        v = refine.inter_class_variance([[0.5, 1.0], [0.5, -1.0]])
        assert v[0] == 0.0
        np.testing.assert_allclose(v[1], 1.0, rtol=1e-15)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        v = refine.inter_class_variance(rng.standard_normal((6, 9)))
        assert (v >= 0.0).all()


@pytest.mark.parametrize("criterion", [refine.inter_class_similarity, refine.inter_class_variance])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_prototype_rejected(criterion, dtype, bad):
    """Each criterion reads finiteness off a pass it makes anyway (the row
    norms, the variances): a NaN or infinite entry still raises."""
    w = two_prototypes().astype(dtype)
    w[1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # named by the ValueError, not warned about first
        with pytest.raises(ValueError, match="non-finite entries"):
            criterion(w)


class TestSelectChannels:
    def test_worked_two_channel_example(self):
        s = [0.3, 0.0]
        v = [0.04, 0.16]
        mask = refine.select_channels(s, v, lam=0.7, q=1)
        np.testing.assert_allclose(mask.scores, [0.198, -0.048], atol=1e-15)
        np.testing.assert_array_equal(mask.selected, [1])

    def test_full_mask_any_scores(self):
        rng = np.random.default_rng(6)
        d = 12
        s = rng.standard_normal(d)
        v = np.zeros(d)
        mask = refine.select_channels(s, v, lam=1.0, q=d)
        np.testing.assert_array_equal(mask.selected, np.arange(d))

    def test_tie_break_to_lower_index(self):
        s = np.zeros(6)
        v = np.zeros(6)
        mask = refine.select_channels(s, v, lam=0.5, q=3)
        np.testing.assert_array_equal(mask.selected, [0, 1, 2])

    def test_q_out_of_range(self):
        s = np.zeros(4)
        v = np.zeros(4)
        for q in (0, 5):
            with pytest.raises(ValueError):
                refine.select_channels(s, v, 0.5, q)

    def test_lambda_out_of_range(self):
        s = np.zeros(4)
        v = np.zeros(4)
        with pytest.raises(ValueError):
            refine.select_channels(s, v, 1.5, 2)

    def test_criteria_of_other_shapes_rejected(self):
        for s, v in ((np.zeros(4), np.zeros(3)), (np.zeros((2, 2)), np.zeros((2, 2))), (np.zeros(4), 0.0)):
            with pytest.raises(ValueError, match="^criterion vectors must be 1-D and of equal length$"):
                refine.select_channels(s, v, 0.5, 2)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # 0 * inf in the blend
    def test_non_finite_scores_rejected(self):
        for bad in (np.nan, np.inf):
            for lam in (0.0, 0.5, 1.0):
                with pytest.raises(ValueError, match="finite"):
                    refine.select_channels(np.array([0.0, bad]), np.zeros(2), lam, 1)
                with pytest.raises(ValueError, match="finite"):
                    refine.select_channels(np.zeros(2), np.array([bad, 0.0]), lam, 1)

    def test_exhaustive_subset_optimality(self):
        """The stable top-q rule hits the exact minimum over all subsets."""
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(3, 9))
            q = int(rng.integers(1, d + 1))
            lam = float(rng.choice([0.0, 0.2, 0.7, 1.0]))
            w = unit_rows(rng, c, d)
            s = refine.inter_class_similarity(w)
            v = refine.inter_class_variance(w)
            mask = refine.select_channels(s, v, lam, q)
            chosen = math.fsum(mask.scores[mask.selected])
            best = min(
                math.fsum(mask.scores[list(sub)])
                for sub in itertools.combinations(range(d), q)
            )
            assert chosen == best

    @settings(max_examples=80, deadline=None)
    @given(
        c=st.integers(2, 6),
        d=st.integers(1, 12),
        lam=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_nested_selection(self, c, d, lam, seed):
        """The selection for q is a subset of the one for q + 1.  Columns
        drawn with repetition duplicate channels, so their scores tie and
        the lower index must be kept first."""
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((c, d))
        w = numkit.l2_normalize_rows(base[:, rng.integers(0, d, d)])
        s = refine.inter_class_similarity(w)
        v = refine.inter_class_variance(w)
        previous = set()
        for q in range(1, d + 1):
            mask = refine.select_channels(s, v, lam, q)
            current = set(mask.selected.tolist())
            assert previous <= current
            for i in current:
                tied_below = np.flatnonzero(mask.scores[:i] == mask.scores[i])
                assert set(tied_below.tolist()) <= current
            previous = current

    def test_masking_reduces_prototype_similarity(self):
        """Refined masks lower mean pairwise prototype cosine vs random masks."""
        c, d, q = 10, 32, 16
        refined_mean, random_mean = [], []

        def mean_pairwise_cosine(w):
            g = w @ w.T
            return (g.sum() - np.trace(g)) / (c * (c - 1))

        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = unit_rows(rng, c, d)
            s = refine.inter_class_similarity(w)
            v = refine.inter_class_variance(w)
            mask = refine.select_channels(s, v, 0.7, q)
            rnd = refine.ChannelMask(
                selected=np.sort(rng.choice(d, q, replace=False)),
                scores=np.zeros(d),
            )
            refined_mean.append(mean_pairwise_cosine(apply_mask(w, mask)))
            random_mean.append(mean_pairwise_cosine(apply_mask(w, rnd)))
        assert np.mean(refined_mean) <= np.mean(random_mean)


class TestTakeChannels:
    def test_single_channel_renormalizes_to_unit(self):
        out = refine._take_channels(np.array([[0.6, 0.8]]), np.array([1]), renormalize=True)
        np.testing.assert_allclose(out, [[1.0]], rtol=1e-15)

    def test_identity_mask_bitwise(self):
        rng = np.random.default_rng(9)
        m = unit_rows(rng, 5, 6)
        out = refine._take_channels(m, refine.full_mask(6).selected, renormalize=False)
        assert out.tobytes() == m.tobytes()

    def test_zero_row_warns(self):
        with pytest.warns(numkit.ZeroRowWarning):
            out = refine._take_channels(np.array([[1.0, 0.0]]), np.array([1]), renormalize=True)
        np.testing.assert_array_equal(out, [[0.0]])

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("renormalize", [True, False])
    def test_take_channels_equals_gather_then_normalize(self, order, renormalize):
        rng = np.random.default_rng(11)
        m = np.asarray(rng.standard_normal((37, 20)), order=order)
        m[4] = 0.0
        before = m.copy()
        idx = np.sort(rng.choice(20, 9, replace=False))
        gathered = np.ascontiguousarray(m[:, idx])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", numkit.ZeroRowWarning)
            want = numkit.l2_normalize_rows(gathered) if renormalize else gathered
            got = refine._take_channels(m, idx, renormalize)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert m.tobytes() == before.tobytes()

    @pytest.mark.parametrize("renormalize", [True, False])
    def test_float32_rows_take_before_they_widen(self, renormalize):
        """Taking the channels of float32 rows, then widening and dividing
        them, gives the bits of taking them from the widened rows, also
        for rows already within the unit band and across row blocks."""
        rng = np.random.default_rng(12)
        m = (rng.standard_normal((37, 20)) * rng.uniform(0.5, 2.0, (37, 1))).astype(np.float32)
        m[3] = 0.0
        m[3, 7] = 1.0  # a unit row: widened, never divided
        norms = numkit._row_norms(m)
        idx = np.sort(rng.choice(20, 9, replace=False))
        want = refine._take_channels(numkit._unit64(m, norms), idx, renormalize)
        with block_budget(9, 4):
            got = refine._take_channels(m, idx, renormalize, norms)
        assert got.tobytes() == want.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="^mask covers 3 channels, matrix has 4$"):
            refine._check_width(refine.full_mask(3), 4)


class TestMaskInvariants:
    def test_selected_scores_dominate(self):
        with pytest.raises(ValueError):
            refine.ChannelMask(selected=[0], scores=[1.0, 0.0])

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            refine.ChannelMask(selected=[1, 1], scores=np.zeros(3))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            refine.ChannelMask(selected=[3], scores=np.zeros(3))


class TestMaskFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        w = unit_rows(rng, 4, 9)
        s = refine.inter_class_similarity(w)
        v = refine.inter_class_variance(w)
        mask = refine.select_channels(s, v, 0.7, 5)
        path = tmp_path / "mask.txt"
        refine.save_mask(path, mask, 0.7)
        header = path.read_text().splitlines()[0]
        assert header.startswith("APE-MASK v1 D=9 Q=5 lambda=")
        loaded, lam = refine.load_mask(path)
        assert lam == 0.7
        np.testing.assert_array_equal(loaded.selected, mask.selected)
        np.testing.assert_array_equal(loaded.scores, mask.scores)
        assert loaded.d_total == mask.d_total

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text("WRONG v9 D=2 Q=1 lambda=0.5\n0 0.0 1\n1 0.0 0\n")
        with pytest.raises(ValueError):
            refine.load_mask(path)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("D=3 Q=1 lambda=0.7\n0 0.1 1\n0 0.2 0\n2 0.3 0\n", id="repeated-index"),
            pytest.param("D=3 Q=1 lambda=0.7\n1 0.2 0\n2 0.3 0\n-3 0.1 1\n", id="negative-index"),
            pytest.param("D=3 Q=1 lambda=0.7\n0 0.1 1\n1 0.2 0\n3 0.3 0\n", id="index-past-d"),
            pytest.param("D=3 Q=1 lambda=0.7\n0 0.1 1\n1 0.2 0\n", id="missing-row"),
            pytest.param("D=3 Q=1 lambda=0.7\n0 0.1 1\n1 0.2\n2 0.3 0\n", id="short-row"),
            pytest.param("D=3 Q=1 lambda=0.7\n0 0.1 2\n1 0.2 0\n2 0.3 0\n", id="flag-two"),
            pytest.param("D=3 Q=2 lambda=0.7\n0 0.1 1\n1 0.2 0\n2 0.3 0\n", id="q-mismatch"),
            pytest.param("D=3 lambda=0.7\n0 0.1 1\n1 0.2 0\n2 0.3 0\n", id="missing-q"),
            pytest.param("D=3 Q=1\n0 0.1 1\n1 0.2 0\n2 0.3 0\n", id="missing-lambda"),
            pytest.param("D=3 Q=1 lambda=1.5\n0 0.1 1\n1 0.2 0\n2 0.3 0\n", id="lambda-above-one"),
            pytest.param("D=3 Q=1 lambda=nan\n0 0.1 1\n1 0.2 0\n2 0.3 0\n", id="lambda-nan"),
            pytest.param("D=3 Q=1 lambda=0.7\n0 nan 1\n1 0.2 0\n2 0.3 0\n", id="score-nan"),
            pytest.param("D=3 Q=1 lambda=0.7\n0 0.5 1\n1 0.2 0\n2 0.3 0\n", id="score-order"),
            pytest.param("D=3 Q=1 lambda=0.7\n0 0.1 1\n1 0.2 0\n2 0.3 \xe9\n", id="non-ascii"),
        ],
    )
    def test_malformed_file_rejected_naming_it(self, tmp_path, text):
        path = tmp_path / "mask.txt"
        path.write_bytes(f"{refine.MASK_HEADER} {text}".encode("latin-1"))
        with pytest.raises(ValueError, match=re.escape(str(path))):
            refine.load_mask(path)

    def test_rows_in_any_order(self, tmp_path):
        path = tmp_path / "mask.txt"
        path.write_text(f"{refine.MASK_HEADER} D=3 Q=1 lambda=0.25\n2 0.3 0\n0 0.1 1\n1 0.2 0\n")
        mask, lam = refine.load_mask(path)
        assert lam == 0.25
        np.testing.assert_array_equal(mask.selected, [0])
        np.testing.assert_array_equal(mask.scores, [0.1, 0.2, 0.3])
