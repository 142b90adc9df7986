// Measurement rules of the KGQAn benchmark, kept free of workload code so
// the benchmark's own tests can pin them:
//  * wall-clock self time of every span in one question's span tree;
//  * the nearest-rank percentile and the rule for which percentiles a
//    sample count supports;
//  * the knee-ladder walk that turns per-rate steps into knee_qps.

#ifndef KGQANBENCH_SPAN_STATS_H_
#define KGQANBENCH_SPAN_STATS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "obs/trace.h"

namespace kgqanbench {

// Self time, in nanoseconds, of every span of one trace (index-aligned
// with `spans`).  A span's self time is the wall time during which it is
// open and none of its children is: the duration minus the *union* of the
// child intervals, so children that overlap (linking and execution fan out
// on the engine's pool) are not subtracted twice.  Where several such
// childless spans are open at once (overlapping siblings), they split that
// wall time evenly.  Every instant of a root span is therefore attributed
// to exactly one span's share, and the self times of a tree sum to its
// root's duration.  Child intervals are clamped into their parent's; a
// span still open (duration < 0) counts as empty.
std::vector<double> SelfTimesNs(
    const std::vector<kgqan::obs::SpanRecord>& spans);

// Nearest-rank p-th percentile (0 < p <= 100) of raw samples; 0 when empty.
double Percentile(std::vector<double> samples, double p);

// True when at least `min_beyond` samples lie strictly beyond the
// nearest-rank p-th percentile of `n` samples (p99 needs n >= 1000 for
// ten samples beyond it).
bool PercentileSupported(size_t n, double p, size_t min_beyond = 10);

// Outcome of one open-loop step at a fixed offered rate.
struct StepOutcome {
  double p99_ms = 0.0;    // Over the step's requests, timed from due time.
  size_t shed = 0;        // Overloaded rejections.
  size_t failed = 0;      // Errors, deadline-exceeded and mismatches.
  double backlog = 0.0;      // Mean unfinished requests late in the step.
  double max_backlog = 0.0;  // Largest backlog that still counts as steady.
};

// A step passes when p99 stays within `limit_ms` with nothing shed or
// failed and no growing backlog.
bool StepPasses(const StepOutcome& outcome, double limit_ms);

// Walks `rungs` (ascending offered rates) bottom-up and stops at the
// first failing rung: first every `stride`-th rung, then, from the last
// passing one, each rung below the rung that failed.  Returns the last
// passing rate, or 0 when the lowest rung already fails.  `passes` runs
// one step at the given rate.
double WalkLadder(const std::vector<double>& rungs, size_t stride,
                  const std::function<bool(double)>& passes);

}  // namespace kgqanbench

#endif  // KGQANBENCH_SPAN_STATS_H_
