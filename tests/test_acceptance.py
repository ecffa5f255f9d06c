"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""
import math
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from labelaudit.data import PredictiveDistribution, TaggedToken
from labelaudit.metrics import (
    RankedQuery,
    ScoredPrediction,
    classification_metrics,
    ranking_metrics,
    relative_recall_change,
)
from labelaudit.mlp import (
    Model,
    ModelSpec,
    cross_entropy_loss,
    init_model,
    loss_gradients,
    mcd_predict,
    predict,
)
from labelaudit.noisebench import NoiseMask, detection_scores
from labelaudit.pipeline import BenchmarkConfig, PipelineConfig, default_benchmark_config, run_pipeline
from labelaudit.policy import (
    KEEP,
    NEGATIVE,
    OVERWRITE,
    POSITIVE,
    REMOVE,
    Decision,
    FilterThresholds,
    OverwriteThresholds,
    QuantileThresholds,
    decide_filter,
    decide_overwrite,
    decide_quantile,
)
from labelaudit.sdgmask import MASK_PLACEHOLDER, select_masks
from labelaudit.uncertainty import UncertaintySummary, ordinal_quantile, summarize


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {description}")
        raise
    print(f"[criterion {number}] PASS - {description}")


# --- criterion 1: headline numbers are covered by metric definitions only ----

def test_criterion_1_metric_definitions():
    """The reported large-scale gains need the proprietary corpus; what this
    artifact owes is faithful metric definitions, checked here."""
    with criterion(1, "metric definitions stand in for unreproducible headline numbers"):
        m = ranking_metrics([RankedQuery("a", 2), RankedQuery("b", 4)])
        assert m["mrr"] == pytest.approx(0.375) and m["avg_rank"] == pytest.approx(3.0)

        preds = [ScoredPrediction(f"p{i}", s, g) for i, (s, g) in enumerate(
            zip([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]))]
        scores = classification_metrics(preds, 0.5)
        assert scores["average_precision"] == pytest.approx(5 / 6, abs=1e-12)
        assert scores["pr_auc"] == pytest.approx(19 / 24, abs=1e-12)
        assert scores["f1"] == pytest.approx(0.5)  # tp=1, fp=1, fn=1 at threshold 0.5

        # relative recall change: exactly linear with slope 1/(1 - baseline)
        assert relative_recall_change(0.5, 0.55) == pytest.approx(0.10)
        for base in (0.0, 0.3, 0.6):
            slope = 1.0 / (1.0 - base)
            for new in (0.1, 0.5, 0.9):
                assert relative_recall_change(base, new) == pytest.approx((new - base) * slope)


# --- criterion 2: noise-recovery benchmark -----------------------------------

# recorded from the first run of each pinned configuration (this code, this seed)
PINNED_BENCHMARK = {
    ("symmetric", 4): {
        "precision": 0.9669565217391304,
        "recall": 0.9266666666666666,
        "baseline_accuracy": 0.912,
        "cleaned_accuracy": 0.96,
    },
    ("symmetric", 20): {
        "precision": 0.9670710571923743,
        "recall": 0.93,
        "baseline_accuracy": 0.904,
        "cleaned_accuracy": 0.972,
    },
    ("asymmetric", 1): {
        "precision": 0.9861830742659758,
        "recall": 0.9516666666666667,
        "baseline_accuracy": 0.5,
        "cleaned_accuracy": 0.974,
    },
    ("asymmetric", 2): {
        "precision": 0.9762308998302207,
        "recall": 0.9583333333333334,
        "baseline_accuracy": 0.5,
        "cleaned_accuracy": 0.986,
    },
}


@pytest.mark.parametrize("variant,seed", sorted(PINNED_BENCHMARK))
def test_criterion_2_noise_recovery_benchmark(variant, seed, tmp_path):
    with criterion(2, f"noise recovery ({variant}, seed {seed})"):
        config = default_benchmark_config(variant, seed=seed, out_dir=str(tmp_path))
        bench = config.benchmark
        assert (bench.n, bench.dim, bench.spread) == (2000, 2, 1.0)
        assert bench.centers == ((-2.0, 0.0), (2.0, 0.0))
        assert (bench.noise_rate, bench.dev_size, bench.test_size) == (0.3, 200, 500)
        assert (config.folds, config.passes, config.dropout) == (5, 10, 0.1)

        started = time.perf_counter()
        result = run_pipeline(config)
        wall = time.perf_counter() - started
        assert wall < 60.0

        detection = result.report["detection"]
        evaluation = result.report["evaluation"]
        baseline = evaluation["baseline"]["accuracy"]
        cleaned = evaluation["cleaned"]["accuracy"]

        assert detection["precision"] >= 0.80
        assert cleaned - baseline >= 0.02

        pins = PINNED_BENCHMARK[(variant, seed)]
        assert detection["precision"] == pytest.approx(pins["precision"], abs=0.02)
        assert detection["recall"] == pytest.approx(pins["recall"], abs=0.02)
        assert baseline == pytest.approx(pins["baseline_accuracy"], abs=0.02)
        assert cleaned == pytest.approx(pins["cleaned_accuracy"], abs=0.02)


# --- criterion 3: dropout-zero degeneracy, exact -----------------------------

def test_criterion_3_dropout_zero_degeneracy():
    with criterion(3, "dropout 0 degenerates exactly"):
        model = init_model(ModelSpec(2, (16, 16), 2, dropout_rate=0.0), seed=3)
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.normal(size=2)
            dist = mcd_predict(model, x, 10, seed=int(rng.integers(1 << 30)))
            base = predict(model, x)
            for row in dist.passes:
                assert np.array_equal(row, base)
            s = summarize(dist)
            assert np.all(s.std == 0.0)
            assert s.variation_ratio == 0.0

        # with std identically zero and s1, s2 > 0, overwrite is pure mean thresholding
        th = OverwriteThresholds(t1=0.3, s1=0.15, t2=0.75, s2=0.15)
        for _ in range(500):
            mean_pos = float(rng.random())
            label = int(rng.integers(2))
            rows = [[1 - mean_pos, mean_pos]] * 10
            decision = decide_overwrite(summarize(PredictiveDistribution("e", rows)), label, th)
            if label == POSITIVE:
                expected = OVERWRITE if mean_pos < th.t1 else KEEP
            else:
                expected = OVERWRITE if mean_pos > th.t2 else KEEP
            assert decision.verdict == expected


# --- criterion 4: oracle equivalence -----------------------------------------

def _oracle_pr_points(scores, golds):
    n_pos = sum(golds)
    points = []
    for th in sorted(set(scores), reverse=True):
        predicted = [s >= th for s in scores]
        tp = sum(1 for p, g in zip(predicted, golds) if p and g)
        points.append((tp / n_pos, tp / sum(predicted)))
    return points


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(41)
    with criterion(4, "implementations agree with independent oracles"):
        # pr_auc / average precision vs exhaustive-threshold integration
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            scores = np.round(rng.random(n), 3).tolist()
            golds = rng.integers(0, 2, size=n).tolist()
            if sum(golds) == 0:
                golds[int(rng.integers(n))] = 1
            preds = [ScoredPrediction(f"p{i}", s, g) for i, (s, g) in enumerate(zip(scores, golds))]
            m = classification_metrics(preds, 0.5)
            pts = _oracle_pr_points(scores, golds)
            ap = sum((r - r0) * p for (r0, _), (r, p) in zip([(0.0, 1.0)] + pts, pts))
            auc = sum(
                (r1 - r0) * (p1 + p0) / 2.0
                for (r0, p0), (r1, p1) in zip([(0.0, 1.0)] + pts, pts)
            )
            assert abs(m["average_precision"] - ap) < 1e-9
            assert abs(m["pr_auc"] - auc) < 1e-9

        # ordinal quantile vs cumulative-count oracle, exact
        for _ in range(1000):
            c = int(rng.integers(2, 5))
            t = int(rng.integers(1, 15))
            ordering = tuple(rng.permutation(c).tolist())
            argmaxes = rng.integers(0, c, size=t)
            rows = np.zeros((t, c))
            rows[np.arange(t), argmaxes] = 1.0
            dist = PredictiveDistribution("e", rows)
            q = float(rng.random())
            k = max(1, math.ceil(q * t - 1e-12))
            counts = Counter(int(a) for a in argmaxes)
            cumulative = 0
            expected = None
            for cls in ordering:
                cumulative += counts.get(cls, 0)
                if cumulative >= k:
                    expected = cls
                    break
            assert ordinal_quantile(dist, q, ordering) == expected

        # variation ratio vs counting oracle, exact
        for _ in range(1000):
            t = int(rng.integers(1, 15))
            raw = rng.random((t, 3)) + 1e-9
            dist = PredictiveDistribution("e", raw / raw.sum(axis=1, keepdims=True))
            s = summarize(dist)
            counts = Counter(int(r.argmax()) for r in dist.passes)
            assert s.variation_ratio == 1.0 - max(counts.values()) / t

        # detection scores vs set-intersection oracle, exact
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            ids = [f"x{i}" for i in range(n)]
            verdict_codes = rng.integers(0, 3, size=n)
            decisions = [
                Decision(ids[i], (KEEP, REMOVE, OVERWRITE)[verdict_codes[i]],
                         new_label=int(rng.integers(2)) if verdict_codes[i] == 2 else None,
                         rule="r")
                for i in range(n)
            ]
            corrupted = {ids[i]: int(rng.integers(2)) for i in range(n) if rng.random() < 0.4}
            report = detection_scores(decisions, NoiseMask(set(corrupted), corrupted))
            flagged = {d.example_id for d in decisions if d.verdict != KEEP}
            inter = flagged & set(corrupted)
            assert report.precision == (len(inter) / len(flagged) if flagged else 1.0)
            assert report.recall == (len(inter) / len(corrupted) if corrupted else 0.0)
            overwrites = [d for d in decisions if d.verdict == OVERWRITE]
            expected_acc = (
                sum(1 for d in overwrites if corrupted.get(d.example_id) == d.new_label) / len(overwrites)
                if overwrites
                else 1.0
            )
            assert report.overwrite_accuracy == expected_acc


# --- criterion 5: gradient check ----------------------------------------------

def _numeric_gradients(model, x, y, h=1e-5):
    num_w, num_b = [], []
    for layer in range(len(model.weights)):
        gw = np.zeros_like(model.weights[layer])
        for idx in np.ndindex(*gw.shape):
            wp = [w.copy() for w in model.weights]
            wm = [w.copy() for w in model.weights]
            wp[layer][idx] += h
            wm[layer][idx] -= h
            gw[idx] = (
                cross_entropy_loss(Model(model.spec, tuple(wp), model.biases), x, y)
                - cross_entropy_loss(Model(model.spec, tuple(wm), model.biases), x, y)
            ) / (2 * h)
        num_w.append(gw)
        gb = np.zeros_like(model.biases[layer])
        for idx in np.ndindex(*gb.shape):
            bp = [b.copy() for b in model.biases]
            bm = [b.copy() for b in model.biases]
            bp[layer][idx] += h
            bm[layer][idx] -= h
            gb[idx] = (
                cross_entropy_loss(Model(model.spec, model.weights, tuple(bp)), x, y)
                - cross_entropy_loss(Model(model.spec, model.weights, tuple(bm)), x, y)
            ) / (2 * h)
        num_b.append(gb)
    return num_w, num_b


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(55)
    with criterion(5, "analytic gradients match central differences on 20 random models"):
        for trial in range(20):
            d = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 3))
            hidden = tuple(int(rng.integers(1, 9)) for _ in range(depth))
            c = int(rng.integers(2, 4))
            spec = ModelSpec(d, hidden, c, dropout_rate=0.0)
            model = init_model(spec, seed=trial)
            x = rng.normal(size=(int(rng.integers(2, 7)), d))
            y = rng.integers(0, c, size=x.shape[0])
            g_w, g_b = loss_gradients(model, x, y)
            n_w, n_b = _numeric_gradients(model, x, y)
            analytic = np.concatenate([g.ravel() for g in g_w + g_b])
            numeric = np.concatenate([g.ravel() for g in n_w + n_b])
            rel = np.linalg.norm(analytic - numeric) / max(
                np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12
            )
            assert rel < 1e-4, f"trial {trial}: relative error {rel}"


# --- criterion 6: end-to-end determinism --------------------------------------

def test_criterion_6_pipeline_determinism(tmp_path):
    with criterion(6, "identical config reproduces bytes; seed changes folds"):
        config = PipelineConfig(
            seed=17,
            out_dir=str(tmp_path / "run"),
            benchmark=BenchmarkConfig(n=150, dev_size=40, test_size=50),
            policy="overwrite",
            hidden_dims=(8,),
            learning_rate=0.3,
            epochs=3,
            batch_size=32,
            folds=3,
            passes=5,
        )
        first = run_pipeline(config)
        decisions_bytes = (tmp_path / "run" / "decisions.jsonl").read_bytes()
        cleaned_bytes = (tmp_path / "run" / "cleaned.jsonl").read_bytes()
        second = run_pipeline(config)
        assert (tmp_path / "run" / "decisions.jsonl").read_bytes() == decisions_bytes
        assert (tmp_path / "run" / "cleaned.jsonl").read_bytes() == cleaned_bytes
        assert first.fold_assignment == second.fold_assignment

        import dataclasses

        reseeded = dataclasses.replace(config, seed=18, out_dir=str(tmp_path / "run2"))
        third = run_pipeline(reseeded)
        assert third.fold_assignment.fold_of != first.fold_assignment.fold_of


# --- criterion 7: policy fidelity vectors --------------------------------------

def _summary(mean, std):
    mean = np.asarray(mean, float)
    return UncertaintySummary(mean, np.asarray(std, float), 0.0, int(mean.argmax()), (0,), "e")


def _cat_dist(argmaxes, class_count=3):
    rows = np.zeros((len(argmaxes), class_count))
    for i, cls in enumerate(argmaxes):
        rows[i, cls] = 1.0
    return PredictiveDistribution("e", rows)


def test_criterion_7_policy_fidelity_vectors():
    with criterion(7, "worked policy examples at the default operating points"):
        fth = FilterThresholds(t1=0.75, s1=0.2, t2=0.7, s2=0.2)
        # evidence channels: (supports_positive, supports_negative)
        assert decide_filter(_summary([0.1, 0.8], [0.1, 0.15]), POSITIVE, fth).verdict == REMOVE
        assert decide_filter(_summary([0.1, 0.75], [0.1, 0.1]), POSITIVE, fth).verdict == KEEP
        assert decide_filter(_summary([0.9, 0.05], [0.3, 0.1]), NEGATIVE, fth).verdict == KEEP

        oth = OverwriteThresholds(t1=0.3, s1=0.15, t2=0.75, s2=0.15)
        d = decide_overwrite(_summary([0.8, 0.2], [0.1, 0.1]), POSITIVE, oth)
        assert d.verdict == OVERWRITE and d.new_label == NEGATIVE
        d = decide_overwrite(_summary([0.2, 0.8], [0.1, 0.1]), NEGATIVE, oth)
        assert d.verdict == OVERWRITE and d.new_label == POSITIVE
        assert decide_overwrite(_summary([0.7, 0.3], [0.1, 0.1]), POSITIVE, oth).verdict == KEEP

        # ordering bad < neutral < good with classes good=0, neutral=1, bad=2
        qth = QuantileThresholds(ordering=(2, 1, 0), good_set={0}, bad_set={1, 2}, q1=0.9, q2=0.1)
        assert decide_quantile(_cat_dist([1] * 9 + [0]), 0, qth).verdict == REMOVE
        assert decide_quantile(_cat_dist([0] * 10), 2, qth).verdict == REMOVE
        assert decide_quantile(_cat_dist([0] * 8 + [1] * 2), 0, qth).verdict == KEEP


# --- criterion 8: mask-selection rule conformance ------------------------------

def _tok(text, pos="other", head=False, entity=False):
    return TaggedToken(text, pos, is_compound_head=head, is_entity=entity)


def test_criterion_8_sdg_rule_conformance():
    rng = np.random.default_rng(88)
    with criterion(8, "mask rules reproduce the worked sentences and preserve entities"):
        recipe = (
            _tok("Can"), _tok("someone"), _tok("recommend", pos="verb"), _tok("me"),
            _tok("a"), _tok("good"), _tok("recipe", pos="noun"), _tok("for"),
            _tok("alfredo", pos="propn", entity=True), _tok("sauce", pos="noun", entity=True),
        )
        rendered = [p.rendered for p in select_masks(recipe, 2)]
        assert "Can someone recommend me a good [MASK] for alfredo sauce" in rendered

        smoothie = (
            _tok("What"), _tok("is"), _tok("your"), _tok("favorite"),
            _tok("strawberry", pos="noun", head=True), _tok("smoothie", pos="noun"),
            _tok("recipe", pos="noun"),
        )
        proposals = select_masks(smoothie, 1)
        assert [p.spans for p in proposals] == [((4, 4),)]
        assert proposals[0].rendered == "What is your favorite [MASK] smoothie recipe"

        # rule 4 keeps every entity verbatim and in order, 100 randomized sentences
        for _ in range(100):
            n = int(rng.integers(1, 15))
            tokens = []
            for i in range(n):
                pos = ("noun", "propn", "verb", "other")[int(rng.integers(4))]
                tokens.append(
                    TaggedToken(
                        text=f"w{i}",
                        pos=pos,
                        is_compound_head=bool(rng.integers(2)) if pos in ("noun", "propn") else False,
                        is_entity=bool(rng.integers(2)),
                    )
                )
            tokens = tuple(tokens)
            entities = [t.text for t in tokens if t.is_entity]
            proposals = select_masks(tokens, 4)
            if len(entities) == len(tokens):
                assert proposals == []
                continue
            words = proposals[0].rendered.split(" ")
            assert [w for w in words if w != MASK_PLACEHOLDER] == entities


# --- criterion 9: threshold monotonicity ---------------------------------------

def test_criterion_9_threshold_monotonicity():
    rng = np.random.default_rng(99)
    with criterion(9, "tightening any single threshold never grows the flagged set"):
        def flagged(decision):
            return decision.verdict != KEEP

        for _ in range(1000):
            policy = ("filter", "overwrite", "quantile")[int(rng.integers(3))]
            if policy == "filter":
                s = _summary(rng.random(2), rng.random(2) * 0.5)
                label = int(rng.integers(2))
                t1, s1, t2, s2 = rng.random(4)
                base = FilterThresholds(t1, s1, t2, s2)
                delta = float(rng.random() * 0.5)
                tightened = [
                    FilterThresholds(min(1.0, t1 + delta), s1, t2, s2),
                    FilterThresholds(t1, max(0.0, s1 - delta), t2, s2),
                    FilterThresholds(t1, s1, min(1.0, t2 + delta), s2),
                    FilterThresholds(t1, s1, t2, max(0.0, s2 - delta)),
                ]
                before = flagged(decide_filter(s, label, base))
                for th in tightened:
                    assert not (flagged(decide_filter(s, label, th)) and not before)
            elif policy == "overwrite":
                mean_pos = float(rng.random())
                s = _summary([1 - mean_pos, mean_pos], [rng.random() * 0.4] * 2)
                label = int(rng.integers(2))
                t1 = float(rng.uniform(0.0, 0.45))
                t2 = float(rng.uniform(0.55, 1.0))
                s1, s2 = rng.random(2)
                base = OverwriteThresholds(t1, s1, t2, s2)
                delta = float(rng.random() * 0.3)
                tightened = [
                    OverwriteThresholds(max(0.0, t1 - delta), s1, t2, s2),
                    OverwriteThresholds(t1, max(0.0, s1 - delta), t2, s2),
                    OverwriteThresholds(t1, s1, min(1.0, t2 + delta), s2),
                    OverwriteThresholds(t1, s1, t2, max(0.0, s2 - delta)),
                ]
                before = flagged(decide_overwrite(s, label, base))
                for th in tightened:
                    assert not (flagged(decide_overwrite(s, label, th)) and not before)
            else:
                c = int(rng.integers(2, 5))
                ordering = tuple(rng.permutation(c).tolist())
                split = int(rng.integers(1, c))
                good = frozenset(ordering[split:])  # upward-closed in the ordering
                bad = frozenset(ordering[:split])
                t = int(rng.integers(1, 12))
                dist = _cat_dist(rng.integers(0, c, size=t).tolist(), class_count=c)
                label = int(rng.integers(c))
                q2 = float(rng.uniform(0.0, 0.4))
                q1 = float(rng.uniform(0.5, 1.0))
                base = QuantileThresholds(ordering, good, bad, q1=q1, q2=q2)
                delta = float(rng.random() * 0.3)
                tightened = [
                    QuantileThresholds(ordering, good, bad, q1=min(1.0, q1 + delta), q2=q2),
                    QuantileThresholds(ordering, good, bad, q1=q1, q2=max(0.0, q2 - delta)),
                ]
                before = flagged(decide_quantile(dist, label, base))
                for th in tightened:
                    assert not (flagged(decide_quantile(dist, label, th)) and not before)
