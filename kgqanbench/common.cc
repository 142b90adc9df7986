#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "core/linker.h"
#include "eval/metrics.h"
#include "obs/json_util.h"
#include "rdf/term.h"
#include "span_stats.h"
#include "text/text_index.h"
#include "util/stopwatch.h"

namespace kgqanbench {

using kgqan::benchgen::BenchQuestion;
using kgqan::core::QaResponse;

kgqan::core::KgqanConfig BenchEngineConfig() {
  kgqan::core::KgqanConfig config;
  config.qu.inference.enabled = false;
  return config;
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

std::string Metrics::Json() const {
  std::string out = "{";
  char number[64];
  for (size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, value_unit] = items_[i];
    std::snprintf(number, sizeof(number), "%.17g", value_unit.first);
    if (i > 0) out += ", ";
    out += kgqan::obs::JsonString(name) + ": {\"value\": " + number +
           ", \"unit\": " + kgqan::obs::JsonString(value_unit.second) + "}";
  }
  return out + "}";
}

void PrintResult(const Tally& tally, const Metrics& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": %s}\n",
      tally.mismatches == 0 && tally.attempted > 0 ? "true" : "false",
      tally.attempted, tally.failed, metrics.Json().c_str());
  std::fflush(stdout);
}

std::string AnswerKey(const QaResponse& response) {
  std::string key = response.understood ? "U" : "-";
  if (response.is_boolean) {
    return key + (response.boolean_answer ? "true" : "false");
  }
  std::vector<std::string> terms;
  terms.reserve(response.answers.size());
  for (const auto& term : response.answers) {
    terms.push_back(kgqan::rdf::ToNTriples(term));
  }
  std::sort(terms.begin(), terms.end());
  for (const std::string& term : terms) key += "\n" + term;
  return key;
}

bool AnswerBook::Check(size_t question, const std::string& text,
                       const QaResponse& response) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<QaResponse>& first = first_.at(question);
  if (!first.has_value()) {
    first = response;
    return true;
  }
  if (AnswerKey(*first) == AnswerKey(response)) return true;
  std::fprintf(stderr, "answer mismatch on question %zu: %s\n", question,
               text.c_str());
  return false;
}

double AnswerBook::MacroF1(const std::vector<BenchQuestion>& gold) const {
  std::lock_guard<std::mutex> lock(mutex_);
  kgqan::eval::MacroAverager average;
  for (size_t i = 0; i < gold.size(); ++i) {
    if (first_[i].has_value()) {
      average.Add(kgqan::eval::ScoreQuestion(gold[i], *first_[i]));
    }
  }
  return average.Average().f1;
}

namespace {

// Uniform double in [0, 1) from the top 53 bits (the same on every
// standard library, unlike std::uniform_real_distribution).
double Unit(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

size_t Below(std::mt19937_64& rng, size_t n) {
  return static_cast<size_t>(Unit(rng) * static_cast<double>(n));
}

std::set<std::string> QuestionWords(const std::vector<BenchQuestion>& qs) {
  std::set<std::string> words;
  for (const BenchQuestion& q : qs) {
    std::string word;
    for (char c : q.text + " ") {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        word += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      } else if (!word.empty()) {
        words.insert(word);
        word.clear();
      }
    }
  }
  return words;
}

}  // namespace

std::vector<size_t> Permutation(std::mt19937_64& rng, size_t n) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[Below(rng, i)]);
  return order;
}

std::vector<size_t> ZipfStream(std::mt19937_64& rng,
                               const std::vector<size_t>& by_rank, double s,
                               size_t length) {
  const size_t n = by_rank.size();
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  std::vector<size_t> stream(length);
  for (size_t& q : stream) {
    double u = Unit(rng) * total;
    size_t rank = static_cast<size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    q = by_rank[std::min(rank, n - 1)];
  }
  return stream;
}

std::vector<std::string> WriteBatches(std::mt19937_64& rng,
                                      const std::vector<BenchQuestion>& qs,
                                      size_t num_batches,
                                      size_t subjects_per_batch) {
  const std::set<std::string> taken = QuestionWords(qs);
  auto fresh_word = [&] {
    for (;;) {
      std::string word;
      for (int i = 0; i < 8; ++i) word += static_cast<char>('a' + Below(rng, 26));
      if (taken.count(word) == 0) return word;
    }
  };
  const std::string base = "http://kgqanbench.example/write/";
  std::vector<std::string> batches(num_batches);
  for (size_t b = 0; b < num_batches; ++b) {
    std::ostringstream nt;
    for (size_t i = 0; i < subjects_per_batch; ++i) {
      std::string subject = "<" + base + "b" + std::to_string(b) + "s" +
                            std::to_string(i) + ">";
      nt << subject << " <" << base << "note> \"" << fresh_word() << " "
         << fresh_word() << " " << fresh_word() << "\" .\n";
      nt << subject << " <" << base << "next> <" << base << "b"
         << std::to_string(b) << "s" << std::to_string((i + 1) %
                                                        subjects_per_batch)
         << "> .\n";
    }
    batches[b] = nt.str();
  }
  return batches;
}

void ReportExtras(const LayerExtras& e, Metrics* m) {
  m->Set("setup.kg_build_s", e.kg_build_s, "s");
  m->Set("setup.engine_s", e.engine_s, "s");
  m->Set("setup.warm_s", e.warm_s, "s");
  m->Set("store.index_bytes", e.index_bytes, "bytes");
  m->Set("text.postings", e.postings, "count");
  m->Set("serve.queue_p50_ms", e.queue_p50_ms, "ms");
  m->Set("serve.queue_p99_ms", e.queue_p99_ms, "ms");
  m->Set("serve.shed", e.shed, "count");
  m->Set("serve.deadline_exceeded", e.deadline_exceeded, "count");
  m->Set("loadgen.lag_ms", e.lag_p99_ms, "ms");
  m->Set("endpoint.add_ntriples_ms", e.add_ntriples_ms, "ms");
  m->Set("linking_cache.hit_rate", e.linking_cache_hit_rate, "frac");
  m->Set("answer_cache.hit_rate", e.answer_cache_hit_rate, "frac");
  m->Set("trace_overhead_frac", e.trace_overhead_frac, "frac");
}

bool MoreSetupReps(const std::vector<double>& setup_s) {
  double total = 0.0;
  for (double s : setup_s) total += s;
  return setup_s.size() < 3 || (setup_s.size() < 15 && total < 3.0);
}

double Median(std::vector<double> values) { return Percentile(values, 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double TextPostings(const kgqan::sparql::Endpoint& endpoint) {
  const auto* local =
      dynamic_cast<const kgqan::sparql::LocalEndpoint*>(&endpoint);
  return local == nullptr
             ? 0.0
             : static_cast<double>(local->text_index().posting_count());
}

void FinishE2e(const Args& args, double macro_f1, const Tally& tally,
               Metrics* m) {
  if (args.trace) return;
  m->Set("macro_f1", macro_f1, "frac");
  m->Set("ok_frac",
         tally.attempted == 0
             ? 0.0
             : 1.0 - static_cast<double>(tally.failed) /
                         static_cast<double>(tally.attempted),
         "frac");
  m->Set("peak_rss_mb", PeakRssMb(), "MiB");
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB.
    }
  }
  return 0.0;
}

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Layer of a span, by its name and its parent's name.  Every span lands
// in exactly one layer, so the layers of a question add up to its time.
std::string LayerOf(const std::string& name, const std::string& parent) {
  if (name == "question") return "unattributed_ms";
  if (name == "qu") return "qu.self_ms";
  if (name == "linking") return "linking.self_ms";
  if (name == "linking.entity") return "linking.entity.self_ms";
  if (name == "linking.relation") return "linking.relation_ms";
  if (name == "sparql.query") {
    if (parent == "linking.entity") return "linking.text_probe_ms";
    if (parent == "linking.relation") return "linking.predicate_probe_ms";
    if (parent == "execution.candidate") return "execution.query_ms";
  }
  if (name.rfind("sparql.plan", 0) == 0 || name.rfind("sparql.eval", 0) == 0) {
    return "sparql.eval_ms";
  }
  if (name == "execution") return "execution.self_ms";
  if (name == "execution.candidate") return "execution.candidate_ms";
  if (name == "filtration") return "filtration_ms";
  return "other_ms";
}

const char* const kLayers[] = {
    "qu.self_ms",           "linking.self_ms",
    "linking.entity.self_ms", "linking.text_probe_ms",
    "linking.relation_ms",  "linking.predicate_probe_ms",
    "sparql.eval_ms",       "execution.self_ms",
    "execution.candidate_ms", "execution.query_ms",
    "filtration_ms",        "other_ms",
    "unattributed_ms",
};

// The contains expression inside a potentialRelevantVertices query.
std::string ContainsExpr(const std::string& query) {
  const std::string open = "<bif:contains> \"";
  size_t begin = query.find(open);
  if (begin == std::string::npos) return std::string();
  begin += open.size();
  size_t end = query.find('"', begin);
  return query.substr(begin, end == std::string::npos ? 0 : end - begin);
}

}  // namespace

void LayerTotals::AddQuestion(const kgqan::obs::Trace& trace,
                              const kgqan::core::KgqanResult& result) {
  std::vector<kgqan::obs::SpanRecord> spans = trace.spans();
  if (spans.empty()) return;
  std::vector<double> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t p = spans[i].parent;
    const std::string parent = p < spans.size() ? spans[p].name : "";
    layer_ms_[LayerOf(spans[i].name, parent)] += self[i] / 1e6;
    if (spans[i].parent == kgqan::obs::kNoSpan) {
      question_ms_ += static_cast<double>(spans[i].duration_ns) / 1e6;
    }
    if (spans[i].name == "linking.entity") {
      ++entity_probes_;
      for (const auto& [key, value] : spans[i].attributes) {
        if (key == "label") pending_labels_.push_back(value);
      }
    }
  }
  ++questions_;
  generated_ += result.queries_generated;
  executed_ += result.queries_executed;
  for (const auto& candidate : result.candidates) {
    if (candidate.executed && candidate.rows > 0) ++productive_;
  }
  requests_ += trace.counter(kgqan::obs::TraceCounter::kEndpointRequests);
  round_trips_ += trace.counter(kgqan::obs::TraceCounter::kEndpointRoundTrips);
}

void LayerTotals::MeasureProbes(kgqan::sparql::Endpoint& endpoint,
                                const kgqan::embed::SemanticAffinity& affinity,
                                size_t max_vr) {
  const auto* local = dynamic_cast<const kgqan::sparql::LocalEndpoint*>(
      &endpoint);
  for (const std::string& label : pending_labels_) {
    if (measured_[label] >= 3) continue;
    ++measured_[label];
    const std::string query =
        kgqan::core::JitLinker::PotentialRelevantVerticesQuery(label, max_vr);
    if (local != nullptr) {
      auto parsed = kgqan::text::ParseContainsQuery(ContainsExpr(query));
      if (parsed.ok()) {
        kgqan::util::Stopwatch watch;
        auto matches = local->text_index().MatchLiteralsScored(*parsed, max_vr);
        text_match_ms_ += watch.ElapsedMillis();
        text_matches_ += matches.size();
      }
    }
    auto rs = endpoint.Query(query);
    if (!rs.ok()) continue;
    auto v_col = rs->ColumnIndex("v");
    auto d_col = rs->ColumnIndex("d");
    if (!v_col.has_value() || !d_col.has_value()) continue;
    std::vector<std::string> descriptions;
    for (size_t r = 0; r < rs->NumRows(); ++r) {
      const auto& v = rs->At(r, *v_col);
      const auto& d = rs->At(r, *d_col);
      if (v.has_value() && d.has_value() && v->IsIri()) {
        descriptions.push_back(d->value);
      }
    }
    kgqan::util::Stopwatch watch;
    for (const std::string& d : descriptions) {
      affinity.NormalizedScore(label, d);
    }
    score_us_ += watch.ElapsedMillis() * 1000.0;
    rows_scored_ += descriptions.size();
    ++probes_measured_;
  }
  pending_labels_.clear();
}

double LayerTotals::MeanQuestionMs() const {
  return questions_ == 0 ? 0.0 : question_ms_ / static_cast<double>(questions_);
}

bool LayerTotals::Report(Metrics* m) const {
  const double q = static_cast<double>(std::max<size_t>(questions_, 1));
  const double probes = static_cast<double>(std::max<size_t>(probes_measured_, 1));
  double layer_sum = 0.0;
  for (const char* layer : kLayers) {
    auto it = layer_ms_.find(layer);
    double value = it == layer_ms_.end() ? 0.0 : it->second / q;
    layer_sum += value;
    m->Set(layer, value, "ms");
  }
  m->Set("question_ms", MeanQuestionMs(), "ms");
  m->Set("linking.entity_probes_per_q", static_cast<double>(entity_probes_) / q,
         "count");
  m->Set("linking.rows_scored", static_cast<double>(rows_scored_) / probes,
         "count");
  m->Set("embedding.normalized_score_us", score_us_ / probes, "us");
  m->Set("text.match_ms", text_match_ms_ / probes, "ms");
  m->Set("text.matches_per_probe", static_cast<double>(text_matches_) / probes,
         "count");
  m->Set("execution.queries_generated", static_cast<double>(generated_) / q,
         "count");
  m->Set("execution.queries_executed", static_cast<double>(executed_) / q,
         "count");
  m->Set("execution.productive_frac",
         executed_ == 0 ? 0.0
                        : static_cast<double>(productive_) /
                              static_cast<double>(executed_),
         "frac");
  m->Set("endpoint.requests_per_q", static_cast<double>(requests_) / q,
         "count");
  m->Set("endpoint.round_trips_per_q", static_cast<double>(round_trips_) / q,
         "count");
  // Self times partition each question's wall time exactly, up to
  // floating-point rounding.
  double gap = std::abs(layer_sum - MeanQuestionMs());
  if (gap > 1e-6 * std::max(1.0, MeanQuestionMs())) {
    std::fprintf(stderr, "layer self times sum to %.6f ms, question %.6f ms\n",
                 layer_sum, MeanQuestionMs());
    return false;
  }
  return true;
}

}  // namespace kgqanbench
