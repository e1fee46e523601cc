/**
 * @file
 * Summary statistics for experiment reporting.
 *
 * The paper's methodology (Section 6.1) runs 10 invocations of each
 * experiment and reports 95 % confidence intervals; suite-wide results
 * aggregate with the geometric mean (Figure 1). These helpers
 * implement exactly those aggregations.
 */

#ifndef CAPO_METRICS_SUMMARY_HH
#define CAPO_METRICS_SUMMARY_HH

#include <cstddef>
#include <vector>

namespace capo::metrics {

/** Mean of @p values (0 for empty input). */
double mean(const std::vector<double> &values);

/** Sample standard deviation (n-1 denominator; 0 for n < 2). */
double sampleStddev(const std::vector<double> &values);

/** Geometric mean; all values must be positive. */
double geomean(const std::vector<double> &values);

/** Two-sided 95 % confidence half-width using Student's t. */
double confidenceHalfWidth95(const std::vector<double> &values);

/** Mean with a 95 % confidence interval. */
struct Summary {
    double mean = 0.0;
    double ci95 = 0.0;   ///< Half-width; interval is mean +/- ci95.
    std::size_t n = 0;
};

/** Summarize a sample. */
Summary summarize(const std::vector<double> &values);

/**
 * Quantiles of a sample via linear interpolation between order
 * statistics, one result per entry of @p qs (ascending, each in
 * [0, 1]). Works by selection on @p values, O(n) rather than a sort:
 * from 5000 values on, a radix pass first keeps only the buckets that
 * hold the needed order statistics. Returns the same bits as sorting
 * and calling quantileSorted(). Throws std::invalid_argument on an
 * empty sample, a q outside [0, 1] or descending @p qs.
 */
std::vector<double> quantiles(std::vector<double> values,
                              const std::vector<double> &qs);

/** One quantile of a sample: quantiles() with a single @p q. */
double quantile(std::vector<double> values, double q);

/** Quantile of an already ascending-sorted sample (no copy); the
 *  same interpolation and contract as quantiles(). */
double quantileSorted(const std::vector<double> &sorted, double q);

} // namespace capo::metrics

#endif // CAPO_METRICS_SUMMARY_HH
