#include "span_stats.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <tuple>

namespace kgqanbench {

using kgqan::obs::kNoSpan;
using kgqan::obs::SpanRecord;

std::vector<double> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  const size_t n = spans.size();
  // A span is appended after its parent, so a valid parent index is lower;
  // anything else is treated as a root.
  auto parent_of = [&](size_t i) {
    size_t p = spans[i].parent;
    return p < i ? p : kNoSpan;
  };
  std::vector<int64_t> begin(n), end(n);
  for (size_t i = 0; i < n; ++i) {
    begin[i] = spans[i].start_ns;
    end[i] = spans[i].duration_ns < 0 ? begin[i]
                                      : begin[i] + spans[i].duration_ns;
    size_t p = parent_of(i);
    if (p != kNoSpan) {
      begin[i] = std::clamp(begin[i], begin[p], end[p]);
      end[i] = std::clamp(end[i], begin[i], end[p]);
    }
  }

  // Sweep over the non-empty spans: ends before starts at equal times; a
  // parent starts before and ends after its children.
  struct Event {
    int64_t time;
    bool is_start;
    size_t span;
  };
  std::vector<Event> events;
  events.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    if (end[i] <= begin[i]) continue;
    events.push_back({begin[i], true, i});
    events.push_back({end[i], false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    auto key = [](const Event& e) {
      int64_t order = e.is_start ? static_cast<int64_t>(e.span)
                                 : -static_cast<int64_t>(e.span);
      return std::make_tuple(e.time, e.is_start, order);
    };
    return key(a) < key(b);
  });

  std::vector<double> self(n, 0.0);
  std::vector<bool> open(n, false);
  std::vector<size_t> open_children(n, 0);
  std::vector<size_t> leaves;  // Open spans with no open child.
  auto drop_leaf = [&](size_t i) {
    leaves.erase(std::remove(leaves.begin(), leaves.end(), i), leaves.end());
  };
  int64_t previous = events.empty() ? 0 : events.front().time;
  for (const Event& e : events) {
    if (e.time > previous && !leaves.empty()) {
      double share = static_cast<double>(e.time - previous) /
                     static_cast<double>(leaves.size());
      for (size_t leaf : leaves) self[leaf] += share;
    }
    previous = e.time;
    size_t p = parent_of(e.span);
    bool parent_open = p != kNoSpan && open[p];
    if (e.is_start) {
      if (parent_open && open_children[p]++ == 0) drop_leaf(p);
      open[e.span] = true;
      leaves.push_back(e.span);
    } else {
      open[e.span] = false;
      drop_leaf(e.span);
      if (parent_open && --open_children[p] == 0) leaves.push_back(p);
    }
  }
  return self;
}

namespace {

// 1-based nearest rank of the p-th percentile among n samples.
size_t NearestRank(size_t n, double p) {
  double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

bool PercentileSupported(size_t n, double p, size_t min_beyond) {
  if (n == 0) return false;
  return n - NearestRank(n, p) >= min_beyond;
}

bool StepPasses(const StepOutcome& outcome, double limit_ms) {
  return outcome.p99_ms <= limit_ms && outcome.shed == 0 &&
         outcome.failed == 0 && outcome.backlog <= outcome.max_backlog;
}

double WalkLadder(const std::vector<double>& rungs, size_t stride,
                  const std::function<bool(double)>& passes) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  size_t last_pass = kNone;
  size_t i = 0;
  while (i < rungs.size() && passes(rungs[i])) {
    last_pass = i;
    i += std::max<size_t>(stride, 1);
  }
  if (last_pass == kNone) return 0.0;
  for (size_t j = last_pass + 1; j < std::min(i, rungs.size()); ++j) {
    if (!passes(rungs[j])) break;
    last_pass = j;
  }
  return rungs[last_pass];
}

}  // namespace kgqanbench
