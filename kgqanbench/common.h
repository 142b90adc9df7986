// Shared pieces of the KGQAn benchmark workloads: seeded input
// generation, the answer check, the per-layer accounting of traced
// questions, and the result line.

#ifndef KGQANBENCH_COMMON_H_
#define KGQANBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/benchmark.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "sparql/endpoint.h"

namespace kgqanbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// A workload's system under test: the benchmark (KG behind its endpoint,
// questions with gold answers) and the engine.
struct Stack {
  kgqan::benchgen::Benchmark bench;
  std::unique_ptr<kgqan::core::KgqanEngine> engine;
};

// Every workload runs the default engine configuration with the QU
// inference shim off: the shim is a simulated model cost, not a layer.
kgqan::core::KgqanConfig BenchEngineConfig();

// Metrics of one run, printed in insertion order as
// {"name": {"value": v, "unit": u}, ...}.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// The run's verdict; failures name their question on stderr.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  size_t mismatches = 0;
};

// Prints the result line (last line of stdout).
void PrintResult(const Tally& tally, const Metrics& metrics);

// Canonical answer set of a response: sorted N-Triples terms, or the
// boolean, plus whether the question was understood.
std::string AnswerKey(const kgqan::core::QaResponse& response);

// Remembers the answer set of each question's first ask and checks every
// later ask against it.  Thread-safe.
class AnswerBook {
 public:
  explicit AnswerBook(size_t num_questions) : first_(num_questions) {}
  // False (and a line on stderr naming the question) on a mismatch.
  bool Check(size_t question, const std::string& text,
             const kgqan::core::QaResponse& response);
  // Macro F1 of every question's first answer against gold.
  double MacroF1(const std::vector<kgqan::benchgen::BenchQuestion>& gold)
      const;

 private:
  mutable std::mutex mutex_;
  std::vector<std::optional<kgqan::core::QaResponse>> first_;
};

// Seeded inputs.  All of them are drawn before timing starts.
std::vector<size_t> Permutation(std::mt19937_64& rng, size_t n);
// `length` question indices drawn from Zipf(s): the question at rank k
// of `by_rank` (most popular first) is drawn with weight 1 / (k+1)^s.
std::vector<size_t> ZipfStream(std::mt19937_64& rng,
                               const std::vector<size_t>& by_rank, double s,
                               size_t length);
// N-Triples batches of fresh, unlabelled subjects whose literals use no
// word occurring in any question, so no answer can change.
std::vector<std::string> WriteBatches(
    std::mt19937_64& rng,
    const std::vector<kgqan::benchgen::BenchQuestion>& questions,
    size_t num_batches, size_t subjects_per_batch);

// Per-layer metrics that do not come from spans.  Fields a workload does
// not exercise stay 0, so every workload prints the same names.
struct LayerExtras {
  double kg_build_s = 0.0;     // BuildBenchmark: KG, store, text, gold.
  double engine_s = 0.0;       // Engine (and server) construction.
  double warm_s = 0.0;         // Cache warm-up before timing.
  double index_bytes = 0.0;    // Endpoint store indexes.
  double postings = 0.0;       // Text index postings.
  double queue_p50_ms = 0.0;   // QaServer admission -> pickup.
  double queue_p99_ms = 0.0;
  double shed = 0.0;           // Overloaded rejections.
  double deadline_exceeded = 0.0;
  double lag_p99_ms = 0.0;     // Dispatcher lateness against due times.
  double add_ntriples_ms = 0.0;  // Mean AddNTriples call.
  double linking_cache_hit_rate = 0.0;
  double answer_cache_hit_rate = 0.0;
  double trace_overhead_frac = 0.0;  // Traced / untraced mean time - 1.
};
void ReportExtras(const LayerExtras& extras, Metrics* metrics);

// Whether to set the workload up once more, given the set-up times so
// far: at least three times, and up to fifteen while they total under
// three seconds, so that setup_s is a median of several.
bool MoreSetupReps(const std::vector<double>& setup_s);

// Median and mean of `values` (0 when empty).
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Postings of the endpoint's text index (0 for other backends).
double TextPostings(const kgqan::sparql::Endpoint& endpoint);

// p99 latency limit of knee_qps: the serving front-end's slow-question
// threshold.
inline constexpr double kSlowQuestionMs = 250.0;

// Adds the end-to-end metrics every workload shares (macro_f1, ok_frac,
// peak_rss_mb) to an untraced run's metrics.
void FinishE2e(const Args& args, double macro_f1, const Tally& tally,
               Metrics* metrics);

// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

double NowMs();  // Steady clock, milliseconds since an arbitrary epoch.

// Per-layer accounting over traced questions: self times grouped into
// layers by span name and parent name, counters from the results, and
// bench-side timings of the public text and embedding calls each entity
// probe makes.
class LayerTotals {
 public:
  // Adds one traced question.
  void AddQuestion(const kgqan::obs::Trace& trace,
                   const kgqan::core::KgqanResult& result);

  // Re-runs the text match and the affinity scoring of every entity probe
  // recorded so far whose label was measured fewer than three times.
  // Call with no concurrent writer on `endpoint`.
  void MeasureProbes(kgqan::sparql::Endpoint& endpoint,
                     const kgqan::embed::SemanticAffinity& affinity,
                     size_t max_vr);

  double MeanQuestionMs() const;

  // Adds the layer, count and probe metrics.  Fails (returns false) when
  // the self times do not add up to the question time.
  bool Report(Metrics* metrics) const;

 private:
  size_t questions_ = 0;
  double question_ms_ = 0.0;
  std::map<std::string, double> layer_ms_;
  size_t generated_ = 0;
  size_t executed_ = 0;
  size_t productive_ = 0;
  uint64_t requests_ = 0;
  uint64_t round_trips_ = 0;
  size_t entity_probes_ = 0;
  std::vector<std::string> pending_labels_;
  std::map<std::string, int> measured_;
  size_t probes_measured_ = 0;
  double text_match_ms_ = 0.0;
  size_t text_matches_ = 0;
  double score_us_ = 0.0;
  size_t rows_scored_ = 0;
};

// The workloads.  Each prints its result line and returns the exit code.
int RunCold(const Args& args, kgqan::benchgen::BenchmarkId id, double scale);
int RunServe(const Args& args);

}  // namespace kgqanbench

#endif  // KGQANBENCH_COMMON_H_
