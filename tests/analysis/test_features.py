"""Tests for series features and idle-phase prediction."""

import numpy as np
import pytest

from repro.analysis.features import (
    IdlePhasePredictor,
    PredictorScore,
    evaluate_predictor,
    predictor_study,
    series_features,
)
from repro.analysis.phases import activity_mask
from repro.errors import AnalysisError
from repro.monitor.timeseries import METRIC_NAMES, GpuTimeSeries
from tests.analysis.test_phases import series_from_sm


class TestSeriesFeatures:
    def test_idle_fraction(self):
        features = series_features(series_from_sm([0.0] * 50 + [20.0] * 50))
        assert features.idle_fraction == pytest.approx(0.5)

    def test_transitions_counted(self):
        sm = ([20.0] * 10 + [0.0] * 10) * 3
        features = series_features(series_from_sm(sm))
        assert features.num_transitions == 5

    def test_periodic_signal_detected(self):
        t = np.arange(512)
        sm = 30.0 + 20.0 * np.sin(2 * np.pi * t / 64.0)
        features = series_features(series_from_sm(sm, step=1.0))
        assert features.dominant_period_s == pytest.approx(64.0, rel=0.1)

    def test_smooth_signal_high_autocorrelation(self):
        t = np.arange(200)
        sm = 30.0 + 20.0 * np.sin(2 * np.pi * t / 100.0)
        features = series_features(series_from_sm(sm))
        assert features.lag1_autocorrelation > 0.9

    def test_regular_runs_negative_burstiness(self):
        sm = ([20.0] * 10 + [0.0] * 10) * 5
        features = series_features(series_from_sm(sm))
        assert features.burstiness < 0.0  # equal-length runs: sigma ~ 0

    def test_too_short_rejected(self):
        with pytest.raises(AnalysisError):
            series_features(series_from_sm([1.0]))


class TestIdlePhasePredictor:
    def test_invalid_params(self):
        with pytest.raises(AnalysisError):
            IdlePhasePredictor(window_s=0.0)
        with pytest.raises(AnalysisError):
            IdlePhasePredictor(persistence_weight=1.5)

    def test_persistent_idle_predicts_idle(self):
        series = series_from_sm([0.0] * 100)
        mask = np.zeros(100, dtype=bool)
        predictor = IdlePhasePredictor()
        assert predictor.idle_probability(series.times_s, mask, 50) == 1.0

    def test_persistent_active_predicts_active(self):
        series = series_from_sm([50.0] * 100)
        mask = np.ones(100, dtype=bool)
        predictor = IdlePhasePredictor()
        assert predictor.idle_probability(series.times_s, mask, 50) == 0.0


class TestEvaluatePredictor:
    def test_constant_series_perfect(self):
        score = evaluate_predictor(series_from_sm([50.0] * 200), horizon_s=10.0)
        assert score.accuracy == 1.0
        assert score.skill == 0.0  # baseline is also perfect

    def test_long_phases_high_accuracy(self):
        sm = [50.0] * 300 + [0.0] * 300
        score = evaluate_predictor(series_from_sm(sm), horizon_s=5.0)
        assert score.accuracy > 0.9

    def test_fast_alternation_defeats_persistence(self):
        # phases shorter than the horizon: persistence mispredicts
        sm = ([50.0] * 3 + [0.0] * 3) * 60
        score = evaluate_predictor(series_from_sm(sm), horizon_s=3.0)
        assert score.accuracy < 0.6

    def test_short_series_rejected(self):
        with pytest.raises(AnalysisError):
            evaluate_predictor(series_from_sm([1.0, 2.0]), horizon_s=100.0)

    def test_invalid_horizon_rejected(self):
        with pytest.raises(AnalysisError):
            evaluate_predictor(series_from_sm([1.0] * 50), horizon_s=0.0)


def scalar_score(series, predictor, horizon_s, stride):
    """The per-sample reference: one ``idle_probability`` call per point."""
    mask = activity_mask(series)
    times = series.times_s
    step = float(np.median(np.diff(times)))
    offset = max(int(round(horizon_s / step)), 1)
    correct = idle_truth = total = 0
    for index in range(0, len(times) - offset, stride):
        predicted_idle = predictor.idle_probability(times, mask, index) >= 0.5
        actual_idle = not mask[index + offset]
        correct += int(predicted_idle == actual_idle)
        idle_truth += int(actual_idle)
        total += 1
    base_rate = idle_truth / total
    return PredictorScore(
        job_id=series.job_id,
        num_predictions=total,
        accuracy=correct / total,
        idle_base_rate=base_rate,
        baseline_accuracy=max(base_rate, 1.0 - base_rate),
    )


def random_series(rng, n, duplicates):
    steps = rng.choice([0.0, 1.0, 2.5], size=n - 1) if duplicates else np.full(n - 1, 1.0)
    times = np.concatenate(([0.0], np.cumsum(steps)))
    metrics = {name: np.zeros(n) for name in METRIC_NAMES}
    # runs of random length so the window sees both states
    metrics["sm"] = np.repeat(rng.choice([0.0, 40.0], size=n), rng.integers(1, 9, size=n))[:n]
    return GpuTimeSeries(7, 0, times, metrics)


class TestVectorizedMatchesScalar:
    @pytest.mark.parametrize("stride", [1, 5, 7])
    @pytest.mark.parametrize("duplicates", [False, True])
    @pytest.mark.parametrize(
        "window_s,persistence", [(300.0, 0.7), (20.0, 0.3), (0.5, 0.5), (40.0, 0.0)]
    )
    def test_field_for_field(self, stride, duplicates, window_s, persistence):
        rng = np.random.default_rng(stride * 100 + int(window_s))
        predictor = IdlePhasePredictor(window_s=window_s, persistence_weight=persistence)
        for n in (12, 97, 400):
            series = random_series(rng, n, duplicates)
            if np.median(np.diff(series.times_s)) == 0:
                # mostly duplicate timestamps: no step to convert the horizon
                with pytest.raises(AnalysisError, match="sampling step"):
                    evaluate_predictor(series, predictor, horizon_s=3.0, stride=stride)
                continue
            got = evaluate_predictor(series, predictor, horizon_s=3.0, stride=stride)
            assert got == scalar_score(series, predictor, 3.0, stride)

    def test_decreasing_times_rejected(self):
        series = series_from_sm([10.0] * 50, job_id=42)
        series.times_s[20] = 5.0
        with pytest.raises(AnalysisError, match="job 42"):
            evaluate_predictor(series, horizon_s=2.0)


class TestPredictorStudy:
    def test_on_generated_data(self, medium_dataset):
        scores, accuracy, skill = predictor_study(
            medium_dataset.timeseries, horizon_s=60.0, max_jobs=60
        )
        assert len(scores) > 10
        # phases mostly outlast a 60 s horizon, so prediction works --
        # the quantitative basis for the paper's co-location claim
        assert accuracy > 0.8

    def test_empty_store_rejected(self):
        from repro.monitor.timeseries import TimeSeriesStore

        with pytest.raises(AnalysisError):
            predictor_study(TimeSeriesStore())
