import numpy as np
import pytest

from labelaudit.data import PredictiveDistribution
from labelaudit.uncertainty import UncertaintySummary, ordinal_quantile, summarize


def _dist(rows, example_id="e"):
    return PredictiveDistribution(example_id, rows)


def test_summarize_mean_and_population_std():
    s = summarize(_dist([[0.9, 0.1], [0.7, 0.3]]))
    assert np.allclose(s.mean, [0.8, 0.2])
    assert np.allclose(s.std, [0.1, 0.1])  # population std, divide by T
    assert s.modal_class == 0
    assert s.example_id == "e"


def test_summarize_degenerate_distribution():
    rows = [[0.6, 0.4]] * 10
    s = summarize(_dist(rows))
    assert np.allclose(s.std, 0.0)
    assert s.variation_ratio == 0.0


def test_variation_ratio_counts_modal_disagreement():
    rows = [[0.9, 0.1]] * 7 + [[0.1, 0.9]] * 3
    s = summarize(_dist(rows))
    assert s.variation_ratio == pytest.approx(0.3)
    assert s.per_pass_argmax == (0,) * 7 + (1,) * 3


def test_argmax_ties_break_to_lowest_class():
    s = summarize(_dist([[0.5, 0.5]]))
    assert s.per_pass_argmax == (0,)
    assert s.modal_class == 0
    assert s.variation_ratio == 0.0


def test_summarize_accepts_bare_evidence_matrix():
    s = summarize(np.array([[0.7, 0.1], [0.5, 0.3]]), example_id="ev")
    assert np.allclose(s.mean, [0.6, 0.2])
    assert s.example_id == "ev"


def test_mean_matches_loop_oracle_on_random_distributions(rng):
    for _ in range(1000):
        t = int(rng.integers(1, 12))
        c = int(rng.integers(2, 5))
        raw = rng.random((t, c)) + 1e-9
        rows = raw / raw.sum(axis=1, keepdims=True)
        s = summarize(_dist(rows))
        for cls in range(c):
            total = 0.0
            for row in rows:
                total += row[cls]
            assert abs(s.mean[cls] - total / t) < 1e-12


@pytest.mark.parametrize("kind", ["distribution", "constant-column", "evidence"])
def test_summarize_is_bit_identical_to_numpy_mean_and_std(rng, kind):
    # numpy's figures are taken on the C-order matrix: its Fortran-ordered and
    # transposed copies must give the same bytes, also at pass counts past
    # numpy's pairwise-summation blocks
    for _ in range(300):
        t_count, width = int(rng.integers(1, 258)), int(rng.integers(2, 6))
        passes = rng.random((t_count, width))
        if kind == "distribution":
            passes /= passes.sum(axis=1, keepdims=True)
        elif kind == "constant-column":
            passes = np.round(passes, 1)
            passes[:, rng.integers(width)] = rng.random()
        else:
            passes = passes[:, :2] * rng.random((t_count, 1)) / 2  # bare evidence: rows sum below 1
        std = passes.std(axis=0)
        std[passes.max(axis=0) == passes.min(axis=0)] = 0.0
        argmax = tuple(int(i) for i in passes.argmax(axis=1))
        modal = int(np.bincount(argmax, minlength=passes.shape[1]).argmax())
        for given in (passes, np.asfortranarray(passes), np.ascontiguousarray(passes.T).T):
            s = summarize(_dist(given) if kind == "distribution" else given)
            assert s.mean.tobytes() == passes.mean(axis=0).tobytes()
            assert s.std.tobytes() == std.tobytes()
            assert s.per_pass_argmax == argmax and all(type(i) is int for i in s.per_pass_argmax)
            assert type(s.modal_class) is int and s.modal_class == modal
            assert type(s.variation_ratio) is float
            assert s.variation_ratio == 1.0 - argmax.count(modal) / t_count


def test_summarize_fills_every_field_as_the_constructor_would(rng):
    passes = np.round(rng.random((9, 3)), 1)
    passes[:, 2] = 0.25  # a constant column: its std is set to exactly 0
    s = summarize(passes, example_id="e7")
    argmax = passes.argmax(axis=1)
    modal = int(np.bincount(argmax, minlength=3).argmax())
    expected = UncertaintySummary(
        mean=passes.mean(axis=0),
        std=np.append(passes[:, :2].std(axis=0), 0.0),
        variation_ratio=1.0 - int((argmax == modal).sum()) / 9,
        modal_class=modal,
        per_pass_argmax=tuple(argmax.tolist()),
        example_id="e7",
    )
    assert vars(s).keys() == vars(expected).keys()
    for name, value in vars(expected).items():
        got = getattr(s, name)
        assert type(got) is type(value)
        if isinstance(value, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (value.dtype, value.shape, value.tobytes())
        else:
            assert got == value


def test_variation_ratio_bounds(rng):
    for _ in range(200):
        t = int(rng.integers(1, 15))
        raw = rng.random((t, 3)) + 1e-9
        s = summarize(_dist(raw / raw.sum(axis=1, keepdims=True)))
        assert 0.0 <= s.variation_ratio <= 1.0 - 1.0 / t
        if len(set(s.per_pass_argmax)) == 1:
            assert s.variation_ratio == 0.0


ORDER = (2, 1, 0)  # class 2 lowest ("bad"), class 0 highest ("good")


def _cat_dist(argmaxes, class_count=3):
    rows = np.full((len(argmaxes), class_count), 0.0)
    for i, cls in enumerate(argmaxes):
        rows[i, cls] = 1.0
    return _dist(rows)


def test_quantile_worked_examples():
    # ordering bad < neutral < good with good=0, neutral=1, bad=2
    good, neutral = 0, 1
    dist = _cat_dist([good] * 8 + [neutral] * 2)
    assert ordinal_quantile(dist, 0.9, ORDER) == good
    dist = _cat_dist([good] * 1 + [neutral] * 9)
    assert ordinal_quantile(dist, 0.9, ORDER) == neutral


def test_quantile_boundaries():
    dist = _cat_dist([0] * 3 + [1] * 4 + [2] * 3)
    assert ordinal_quantile(dist, 0.0, ORDER) == 2  # lowest-ordered class present
    assert ordinal_quantile(dist, 1.0, ORDER) == 0  # highest-ordered class present


def test_quantile_monotone_in_q(rng):
    position = {cls: i for i, cls in enumerate(ORDER)}
    for _ in range(300):
        t = int(rng.integers(1, 12))
        dist = _cat_dist(rng.integers(0, 3, size=t).tolist())
        qs = sorted(rng.random(4))
        values = [position[ordinal_quantile(dist, q, ORDER)] for q in qs]
        assert values == sorted(values)


def test_quantile_validates_inputs():
    dist = _cat_dist([0, 1])
    with pytest.raises(ValueError):
        ordinal_quantile(dist, 0.5, (0, 1))  # not a permutation of all 3 classes
    with pytest.raises(ValueError):
        ordinal_quantile(dist, 1.5, ORDER)
