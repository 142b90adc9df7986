// lcquad-serve: LC-QuAD questions served by serve::QaServer from one
// open-loop dispatcher following a seeded Zipf stream, against an
// endpoint with an injected round-trip time, while a writer adds a small
// batch of fresh triples every few seconds.  Latency is timed from each
// request's due time, so dispatcher stalls and queueing both count.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "serve/qa_server.h"
#include "span_stats.h"
#include "util/stopwatch.h"

namespace kgqanbench {

namespace {

using kgqan::serve::QaServer;
using kgqan::serve::QaServerOptions;
using kgqan::serve::QaServerResponse;
using kgqan::util::Stopwatch;

constexpr size_t kWorkers = 4;
constexpr double kRttMs = 2.0;
constexpr double kRateQps = 50.0;
constexpr double kZipfS = 1.1;
// Which questions are popular is a property of the workload, not of the
// seed: the seed draws the stream from one fixed popularity order, so
// runs differ in arrivals, not in which questions are hot.
constexpr uint64_t kPopularitySeed = 0x6b67716eULL;
constexpr double kWritePeriodS = 5.0;
// Every phase's first write comes a third of a period in, so even a phase
// one period long sees one.
constexpr double kFirstWriteS = kWritePeriodS / 3.0;
constexpr size_t kSubjectsPerWrite = 8;
constexpr double kFixedSeconds = 30.0;  // 1500 samples: 15 beyond p99.
constexpr size_t kStreamLength = 60000;
constexpr size_t kWriteBatches = 64;
// Knee ladder: offered rates rising by kLadderStep from kLadderBase, each
// held for kStepSeconds (one write period), walked
// kLadderStride rungs at a time before filling in.
constexpr double kLadderBase = 50.0;
constexpr double kLadderStep = 1.05;
constexpr size_t kLadderRungs = 48;
constexpr size_t kLadderStride = 4;
constexpr double kStepSeconds = kWritePeriodS;
// A step's backlog is steady while, over its last third, no more than
// this many requests per worker wait or run on average.
constexpr double kBacklogPerWorker = 2.0;

// Inputs drawn from the seed before timing, and the state the phases
// share.
struct ServeState {
  Stack* stack = nullptr;
  std::vector<size_t> stream;
  size_t cursor = 0;
  std::vector<std::string> batches;
  size_t next_batch = 0;
  std::vector<double> write_ms;
  size_t write_failures = 0;
};

// Applies the next write batch at `first_s`, then every kWritePeriodS,
// from its own thread, until stopped.
class Writer {
 public:
  Writer(ServeState* state, double first_s)
      : state_(state), thread_([this, first_s] { Loop(first_s); }) {}
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop(double first_s) {
    auto due = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(first_s));
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        if (wake_.wait_until(lock, due, [this] { return stop_; })) return;
      }
      ServeState& s = *state_;
      const std::string& batch = s.batches[s.next_batch % s.batches.size()];
      ++s.next_batch;
      Stopwatch watch;
      auto added = s.stack->bench.endpoint->AddNTriples(batch);
      s.write_ms.push_back(watch.ElapsedMillis());
      if (!added.ok() || *added != 2 * kSubjectsPerWrite) ++s.write_failures;
      due += std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(kWritePeriodS));
    }
  }

  ServeState* state_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;  // Last: starts after the members it uses.
};

struct PhaseResult {
  std::vector<double> latency_ms;  // Due time -> completion, admitted only.
  std::vector<double> lag_ms;      // Due time -> Submit.
  std::vector<double> queue_ms;
  size_t attempted = 0;
  size_t completed_ok = 0;
  size_t shed = 0;
  size_t errors = 0;
  size_t deadline_exceeded = 0;
  size_t mismatches = 0;
  double backlog = 0.0;  // Mean unfinished requests over the last third.
  double last_done_ms = 0.0;  // Phase start -> last completion.
  size_t linking_hits = 0;
  size_t linking_misses = 0;
  size_t answer_hits = 0;
  size_t answer_misses = 0;
};

// Offers `rate` questions per second for `seconds` to a fresh server, with
// the writer's first batch at `first_write_s`.  With `layers`, every
// request records a full span tree into it.
PhaseResult RunPhase(ServeState* s, AnswerBook* book, double rate,
                     double seconds, double first_write_s,
                     LayerTotals* layers) {
  const auto& questions = s->stack->bench.questions;
  kgqan::sparql::Endpoint& endpoint = *s->stack->bench.endpoint;
  const kgqan::core::KgqanEngine& engine = *s->stack->engine;
  kgqan::obs::TraceCollector collector;
  QaServerOptions options;
  options.num_workers = kWorkers;
  options.trace_sample_every = 0;  // End-to-end runs stay untraced.
  if (layers != nullptr) options.collector = &collector;
  const auto counters_before = engine.Counters();

  struct Sent {
    size_t question;
    double due_ms;
    double submit_ms;
    std::future<QaServerResponse> future;
  };
  const size_t n = static_cast<size_t>(rate * seconds + 0.5);
  std::vector<Sent> sent;
  sent.reserve(n);
  PhaseResult r;
  QaServer server(&engine, &endpoint, options);
  const double start = NowMs();
  {
    Writer writer(s, first_write_s);
    double backlog_sum = 0.0;
    size_t backlog_samples = 0;
    for (size_t i = 0; i < n; ++i) {
      double due = start + static_cast<double>(i) * 1000.0 / rate;
      double wait = due - NowMs();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
      }
      if (3 * i >= 2 * n) {
        auto stats = server.stats();
        backlog_sum += static_cast<double>(stats.admitted - stats.completed);
        ++backlog_samples;
      }
      size_t q = s->stream[s->cursor++ % s->stream.size()];
      double submit = NowMs();
      r.lag_ms.push_back(submit - due);
      ++r.attempted;
      auto future = server.Submit(questions[q].text);
      if (future.ok()) {
        sent.push_back({q, due, submit, std::move(*future)});
      } else if (future.status().code() ==
                 kgqan::util::StatusCode::kOverloaded) {
        ++r.shed;
      } else {
        ++r.errors;
      }
    }
    r.backlog = backlog_samples == 0
                    ? 0.0
                    : backlog_sum / static_cast<double>(backlog_samples);
    writer.Stop();
  }
  server.Drain();

  std::map<uint64_t, const kgqan::obs::Trace*> traces;
  for (const auto& entry : collector.entries()) {
    traces[entry.trace->id()] = entry.trace.get();
  }
  for (Sent& item : sent) {
    QaServerResponse response = item.future.get();
    r.latency_ms.push_back(item.submit_ms - item.due_ms + response.total_ms);
    r.last_done_ms =
        std::max(r.last_done_ms, item.submit_ms + response.total_ms - start);
    r.queue_ms.push_back(response.queue_ms);
    bool match = book->Check(item.question, questions[item.question].text,
                             response.result.response);
    if (!match) ++r.mismatches;
    if (response.deadline_exceeded) ++r.deadline_exceeded;
    if (match && !response.deadline_exceeded) ++r.completed_ok;
    if (layers != nullptr) {
      auto it = traces.find(response.result.trace_id);
      if (it != traces.end()) layers->AddQuestion(*it->second, response.result);
    }
  }
  server.Shutdown();
  const auto counters_after = engine.Counters();
  r.linking_hits = counters_after.linking_cache_hits - counters_before.linking_cache_hits;
  r.linking_misses =
      counters_after.linking_cache_misses - counters_before.linking_cache_misses;
  r.answer_hits = counters_after.answer_cache_hits - counters_before.answer_cache_hits;
  r.answer_misses =
      counters_after.answer_cache_misses - counters_before.answer_cache_misses;
  return r;
}

// Folds a phase into the run's tally.  Shed requests count as failed
// unless `shed_is_signal` (knee-ladder steps, where shedding is what the
// step measures).
void Count(const PhaseResult& r, bool shed_is_signal, Tally* tally) {
  tally->attempted += shed_is_signal ? r.attempted - r.shed : r.attempted;
  tally->mismatches += r.mismatches;
  tally->failed += r.mismatches + r.errors;
  if (!shed_is_signal) tally->failed += r.shed + r.deadline_exceeded;
}

double HitRate(size_t hits, size_t misses) {
  return hits + misses == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

// Asks every question once (RTT off, kWorkers closed-loop clients) so the
// linking cache is warm and every question has its reference answers.
void Warm(Stack* stack, AnswerBook* book, const std::vector<size_t>& order,
          Tally* tally) {
  const auto& questions = stack->bench.questions;
  QaServerOptions options;
  options.num_workers = kWorkers;
  options.trace_sample_every = 0;
  QaServer server(stack->engine.get(), stack->bench.endpoint.get(), options);
  std::atomic<size_t> next{0};
  std::atomic<size_t> failed{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kWorkers; ++c) {
    clients.emplace_back([&] {
      for (size_t i = next++; i < order.size(); i = next++) {
        size_t q = order[i];
        auto response = server.Ask(questions[q].text);
        if (!response.ok() || response->deadline_exceeded ||
            !book->Check(q, questions[q].text, response->result.response)) {
          ++failed;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.Shutdown();
  tally->attempted += order.size();
  tally->failed += failed;
}

}  // namespace

int RunServe(const Args& args) {
  std::mt19937_64 rng(args.seed);
  std::vector<double> setup_s, kg_s, engine_s, warm_s;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<AnswerBook> book;
  Tally warm_tally;
  while (MoreSetupReps(setup_s)) {
    stack.reset();
    book.reset();
    warm_tally = Tally();
    Stopwatch total;
    auto next = std::make_unique<Stack>();
    next->bench =
        kgqan::benchgen::BuildBenchmark(kgqan::benchgen::BenchmarkId::kLcQuad);
    kg_s.push_back(total.ElapsedSeconds());
    Stopwatch engine_watch;
    next->engine =
        std::make_unique<kgqan::core::KgqanEngine>(BenchEngineConfig());
    engine_s.push_back(engine_watch.ElapsedSeconds());
    Stopwatch warm_watch;
    auto next_book = std::make_unique<AnswerBook>(next->bench.questions.size());
    std::mt19937_64 order_rng(args.seed);
    Warm(next.get(), next_book.get(),
         Permutation(order_rng, next->bench.questions.size()), &warm_tally);
    warm_s.push_back(warm_watch.ElapsedSeconds());
    setup_s.push_back(total.ElapsedSeconds());
    stack = std::move(next);
    book = std::move(next_book);
  }
  const auto& questions = stack->bench.questions;
  kgqan::sparql::Endpoint& endpoint = *stack->bench.endpoint;
  std::fprintf(stderr, "[%s] %zu questions, %zu triples\n",
               args.workload.c_str(), questions.size(), endpoint.NumTriples());

  ServeState state;
  state.stack = stack.get();
  std::mt19937_64 popularity_rng(kPopularitySeed);
  state.stream = ZipfStream(
      rng, Permutation(popularity_rng, questions.size()), kZipfS, kStreamLength);
  state.batches = WriteBatches(rng, questions, kWriteBatches, kSubjectsPerWrite);
  endpoint.set_injected_latency_ms(kRttMs);

  Tally tally;
  Metrics metrics;
  LayerExtras extras;
  extras.kg_build_s = Median(kg_s);
  extras.engine_s = Median(engine_s);
  extras.warm_s = Median(warm_s);
  extras.index_bytes = static_cast<double>(endpoint.ApproxIndexBytes());
  extras.postings = TextPostings(endpoint);
  if (!args.trace) {
    double seconds = std::max(args.seconds, kFixedSeconds);
    PhaseResult fixed = RunPhase(&state, book.get(), kRateQps, seconds,
                                 kFirstWriteS, nullptr);
    Count(fixed, false, &tally);
    std::vector<double> rungs;
    for (size_t k = 0; k < kLadderRungs; ++k) {
      rungs.push_back(kLadderBase * std::pow(kLadderStep, static_cast<double>(k)));
    }
    auto step_passes = [&](double rate) {
      PhaseResult step = RunPhase(&state, book.get(), rate, kStepSeconds,
                                  kFirstWriteS, nullptr);
      Count(step, true, &tally);
      StepOutcome outcome;
      outcome.p99_ms = Percentile(step.latency_ms, 99.0);
      outcome.shed = step.shed;
      outcome.failed = step.mismatches + step.errors + step.deadline_exceeded;
      outcome.backlog = step.backlog;
      outcome.max_backlog = kBacklogPerWorker * kWorkers;
      std::fprintf(stderr, "ladder %.1f qps: p99 %.1f ms, shed %zu, backlog %.1f\n",
                   rate, outcome.p99_ms, outcome.shed, outcome.backlog);
      return StepPasses(outcome, kSlowQuestionMs);
    };
    // A rung fails only when two steps at it fail in a row, so that one
    // transient host stall near capacity does not end the walk.
    double knee = WalkLadder(rungs, kLadderStride, [&](double rate) {
      return step_passes(rate) || step_passes(rate);
    });
    if (!PercentileSupported(fixed.latency_ms.size(), 99.0)) {
      std::fprintf(stderr, "only %zu samples: p99 unsupported\n",
                   fixed.latency_ms.size());
      return 1;
    }
    metrics.Set("setup_s", Median(setup_s), "s");
    metrics.Set("latency_p50_ms", Percentile(fixed.latency_ms, 50.0), "ms");
    metrics.Set("latency_p99_ms", Percentile(fixed.latency_ms, 99.0), "ms");
    metrics.Set("throughput_qps",
                static_cast<double>(fixed.completed_ok) /
                    (fixed.last_done_ms / 1000.0),
                "1/s");
    metrics.Set("knee_qps", knee, "1/s");
  } else {
    // Untraced then traced halves at the fixed rate; the layers come from
    // the traced half, the serving counters from the untraced one.
    LayerTotals layers;
    PhaseResult plain = RunPhase(&state, book.get(), kRateQps,
                                 args.seconds / 2.0, kFirstWriteS, nullptr);
    PhaseResult traced = RunPhase(&state, book.get(), kRateQps,
                                  args.seconds / 2.0, kFirstWriteS, &layers);
    Count(plain, false, &tally);
    Count(traced, false, &tally);
    endpoint.set_injected_latency_ms(0.0);
    layers.MeasureProbes(endpoint, stack->engine->affinity(),
                         stack->engine->config().max_fetched_vertices);
    if (!layers.Report(&metrics)) return 1;
    extras.queue_p50_ms = Percentile(plain.queue_ms, 50.0);
    extras.queue_p99_ms = Percentile(plain.queue_ms, 99.0);
    extras.shed = static_cast<double>(plain.shed);
    extras.deadline_exceeded = static_cast<double>(plain.deadline_exceeded);
    extras.lag_p99_ms = Percentile(plain.lag_ms, 99.0);
    extras.linking_cache_hit_rate = HitRate(plain.linking_hits, plain.linking_misses);
    extras.answer_cache_hit_rate = HitRate(plain.answer_hits, plain.answer_misses);
    extras.trace_overhead_frac =
        Mean(traced.latency_ms) / Mean(plain.latency_ms) - 1.0;
    extras.add_ntriples_ms = Mean(state.write_ms);
    ReportExtras(extras, &metrics);
  }
  tally.attempted += warm_tally.attempted;
  tally.failed += warm_tally.failed + state.write_failures;
  FinishE2e(args, book->MacroF1(questions), tally, &metrics);
  PrintResult(tally, metrics);
  return tally.mismatches == 0 && state.write_failures == 0 ? 0 : 1;
}

}  // namespace kgqanbench
