// Cold workloads (mag-cold, dblp-cold): one closed-loop client asks the
// benchmark's questions back to back through KgqanEngine::AnswerFull with
// the linking cache off, so every question pays full JIT linking.

#include "common.h"

#include <cstdio>
#include <memory>

#include "span_stats.h"
#include "util/stopwatch.h"

namespace kgqanbench {

namespace {

using kgqan::benchgen::BenchmarkId;
using kgqan::util::Stopwatch;

constexpr size_t kMinSamples = 1000;  // Ten samples beyond p99.
constexpr double kMaxSeconds = 150.0;
constexpr size_t kOrderPasses = 4000;

}  // namespace

int RunCold(const Args& args, BenchmarkId id, double scale) {
  kgqan::core::KgqanConfig config = BenchEngineConfig();
  config.linking_cache_capacity = 0;

  // Set-up, several times; the last stack is kept.
  std::vector<double> setup_s, kg_s, engine_s;
  std::unique_ptr<Stack> stack;
  while (MoreSetupReps(setup_s)) {
    stack.reset();
    Stopwatch total;
    auto next = std::make_unique<Stack>();
    next->bench = kgqan::benchgen::BuildBenchmark(id, scale);
    kg_s.push_back(total.ElapsedSeconds());
    Stopwatch engine_watch;
    next->engine = std::make_unique<kgqan::core::KgqanEngine>(config);
    engine_s.push_back(engine_watch.ElapsedSeconds());
    setup_s.push_back(total.ElapsedSeconds());
    stack = std::move(next);
  }
  const auto& questions = stack->bench.questions;
  kgqan::sparql::Endpoint& endpoint = *stack->bench.endpoint;
  const kgqan::core::KgqanEngine& engine = *stack->engine;
  std::fprintf(stderr, "[%s] %zu questions, %zu triples\n",
               args.workload.c_str(), questions.size(), endpoint.NumTriples());

  // Question order: one seeded permutation per pass, drawn up front.
  std::mt19937_64 rng(args.seed);
  std::vector<size_t> order;
  for (size_t pass = 0; pass < kOrderPasses; ++pass) {
    std::vector<size_t> p = Permutation(rng, questions.size());
    order.insert(order.end(), p.begin(), p.end());
  }

  AnswerBook book(questions.size());
  Tally tally;
  LayerTotals layers;
  std::vector<double> untraced_ms, traced_ms;
  auto ask = [&](size_t q, kgqan::obs::Trace* trace) {
    const std::string& text = questions[q].text;
    Stopwatch watch;
    kgqan::core::KgqanResult result = engine.AnswerFull(text, endpoint, trace);
    double ms = watch.ElapsedMillis();
    ++tally.attempted;
    bool match = book.Check(q, text, result.response);
    if (!match) ++tally.mismatches;
    if (!match || result.deadline_exceeded) ++tally.failed;
    (trace != nullptr ? traced_ms : untraced_ms).push_back(ms);
    if (trace != nullptr) {
      layers.AddQuestion(*trace, result);
      layers.MeasureProbes(endpoint, engine.affinity(),
                           config.max_fetched_vertices);
    }
  };

  Stopwatch wall;
  size_t asked = 0;
  for (size_t i = 0;; ++i) {
    double elapsed = wall.ElapsedSeconds();
    bool covered = i >= questions.size();
    bool enough = args.trace || untraced_ms.size() >= kMinSamples;
    if (covered && ((elapsed >= args.seconds && enough) ||
                    elapsed >= kMaxSeconds)) {
      break;
    }
    size_t q = order[i % order.size()];
    if (!args.trace) {
      ask(q, nullptr);
    } else {
      // Traced and untraced asks of the same question, alternating which
      // goes first.
      kgqan::obs::Trace trace(kgqan::obs::Trace::Mode::kFull);
      if (i % 2 == 0) ask(q, nullptr);
      ask(q, &trace);
      if (i % 2 == 1) ask(q, nullptr);
    }
    ++asked;
  }
  const double elapsed_s = wall.ElapsedSeconds();

  Metrics metrics;
  if (!args.trace) {
    if (!PercentileSupported(untraced_ms.size(), 99.0)) {
      std::fprintf(stderr, "only %zu samples: p99 unsupported\n",
                   untraced_ms.size());
      return 1;
    }
    double p99 = Percentile(untraced_ms, 99.0);
    double qps = static_cast<double>(asked) / elapsed_s;
    metrics.Set("setup_s", Median(setup_s), "s");
    metrics.Set("latency_p50_ms", Percentile(untraced_ms, 50.0), "ms");
    metrics.Set("latency_p99_ms", p99, "ms");
    metrics.Set("throughput_qps", qps, "1/s");
    // One closed-loop client sustains exactly its own completion rate.
    metrics.Set("knee_qps", p99 <= kSlowQuestionMs ? qps : 0.0, "1/s");
  } else {
    if (!layers.Report(&metrics)) return 1;
    LayerExtras extras;
    extras.kg_build_s = Median(kg_s);
    extras.engine_s = Median(engine_s);
    extras.index_bytes = static_cast<double>(endpoint.ApproxIndexBytes());
    extras.postings = TextPostings(endpoint);
    extras.trace_overhead_frac = Mean(traced_ms) / Mean(untraced_ms) - 1.0;
    ReportExtras(extras, &metrics);
  }
  FinishE2e(args, book.MacroF1(questions), tally, &metrics);
  PrintResult(tally, metrics);
  return tally.mismatches == 0 ? 0 : 1;
}

}  // namespace kgqanbench
