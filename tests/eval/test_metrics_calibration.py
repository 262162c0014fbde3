"""Tests for P/R metrics and the Figure-5 calibration artifacts."""

import numpy as np
import pytest

from repro.core.result import output_database
from repro.eval import (bucket_index, calibration_plot, precision_recall,
                        probability_histogram)


class TestPrecisionRecall:
    def test_perfect(self):
        pr = precision_recall({"a", "b"}, {"a", "b"})
        assert pr.precision == 1.0
        assert pr.recall == 1.0
        assert pr.f1 == 1.0

    def test_partial(self):
        pr = precision_recall({"a", "x"}, {"a", "b"})
        assert pr.precision == 0.5
        assert pr.recall == 0.5
        assert pr.f1 == 0.5

    def test_empty_prediction(self):
        pr = precision_recall(set(), {"a"})
        assert pr.precision == 0.0
        assert pr.recall == 0.0
        assert pr.f1 == 0.0

    def test_counts(self):
        pr = precision_recall({"a", "b", "c"}, {"b", "c", "d", "e"})
        assert (pr.true_positives, pr.false_positives, pr.false_negatives) == (2, 1, 2)

    def test_str(self):
        assert "P=" in str(precision_recall({"a"}, {"a"}))


class TestThreshold:
    """P/R of the output database (the one acceptance rule) by threshold."""

    def test_apply_threshold(self):
        marginals = {("R", ("a",)): 0.95, ("R", ("b",)): 0.5,
                     ("R", ("c",)): 0.91}
        assert set(output_database(marginals, 0.9)["R"]) == {("a",), ("c",)}

    def test_curve_monotone_counts(self):
        marginals = {("R", (i,)): i / 10 for i in range(1, 10)}
        curve = [precision_recall(output_database(marginals, t).get("R", ()),
                                  {(1,), (2,), (3,)})
                 for t in [i / 20 for i in range(1, 20)]]
        sizes = [pr.true_positives + pr.false_positives for pr in curve]
        assert sizes == sorted(sizes, reverse=True)


class TestBuckets:
    def test_bucket_index_bounds(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(0.999) == 9
        assert bucket_index(1.0) == 9

    def test_bucket_index_interior(self):
        assert bucket_index(0.25) == 2


class TestCalibrationPlot:
    def test_well_calibrated(self):
        rng = np.random.default_rng(0)
        probabilities = rng.random(5000)
        labels = rng.random(5000) < probabilities
        plot = calibration_plot(list(probabilities), list(labels))
        assert plot.max_deviation < 0.1

    def test_miscalibrated_detected(self):
        # always predicts 0.9 but only half are correct
        plot = calibration_plot([0.9] * 100, [i % 2 == 0 for i in range(100)])
        assert plot.max_deviation > 0.3

    def test_empty_buckets_nan(self):
        plot = calibration_plot([0.95], [True])
        assert np.isnan(plot.bucket_accuracy[0])
        assert plot.bucket_counts[9] == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            calibration_plot([0.5], [True, False])

    def test_ascii_renders(self):
        plot = calibration_plot([0.95, 0.05], [True, False])
        text = plot.ascii()
        assert "calibration" in text
        assert "(empty)" in text


class TestProbabilityHistogram:
    def test_u_shape_score_high(self):
        histogram = probability_histogram([0.01] * 50 + [0.99] * 50)
        assert histogram.u_shape_score == 1.0

    def test_u_shape_score_low(self):
        histogram = probability_histogram([0.5] * 100)
        assert histogram.u_shape_score == 0.0

    def test_counts(self):
        histogram = probability_histogram([0.05, 0.15, 0.15, 0.95])
        assert histogram.bucket_counts[0] == 1
        assert histogram.bucket_counts[1] == 2
        assert histogram.bucket_counts[9] == 1

    def test_ascii_renders(self):
        assert "histogram" in probability_histogram([0.5]).ascii()

    def test_empty_score_nan(self):
        assert np.isnan(probability_histogram([]).u_shape_score)


class TestCalibrationVsExact:
    """The oracle-backed calibration diagnostic for toy graphs."""

    @staticmethod
    def toy_compiled():
        from repro.factorgraph import (CompiledGraph, FactorFunction,
                                       FactorGraph)
        graph = FactorGraph()
        rng = np.random.default_rng(1)
        for i in range(6):
            graph.variable(i)
            graph.add_factor(FactorFunction.IS_TRUE, [i],
                             graph.weight(("u", i), float(rng.normal(0, 1.5))))
        graph.add_factor(FactorFunction.IMPLY, [0, 1],
                         graph.weight("g", 1.0))
        graph.set_evidence(5, True)
        return CompiledGraph(graph)

    def test_good_sampler_hugs_diagonal(self):
        from repro.inference import GibbsSampler
        from tests.inference.exact import calibration_vs_exact

        compiled = self.toy_compiled()
        estimated = GibbsSampler(compiled, seed=3).marginals(
            num_samples=8000, burn_in=400)
        plot = calibration_vs_exact(compiled, estimated.marginals)
        assert plot.bucket_counts.sum() == 5          # evidence excluded
        assert plot.max_deviation < 0.1

    def test_broken_estimates_flagged(self):
        from tests.inference.exact import calibration_vs_exact

        compiled = self.toy_compiled()
        inverted = 1.0 - np.linspace(0.05, 0.95, compiled.num_variables)
        plot = calibration_vs_exact(compiled, inverted)
        assert plot.max_deviation > 0.2
