// perfbench: the repository's end-to-end benchmark (see README.md here).
//
// One invocation measures one workload through the public API:
//
//   1. set-up, repeated kSetups times: for the tuned workloads the CHOPPER
//      profile sweep, WorkloadDb save/load, Algorithm-3 plan and Fig. 6
//      config round trip, then an untuned reference run and one run under
//      the plan (the digest reference); for kmeans-budget-wal the untuned
//      reference and one run under the budget/WAL configuration;
//   2. a closed loop of timed runs for --seconds: one driver, one run in
//      flight, each run on a fresh Engine, every output checked against the
//      set-up references;
//   3. with --trace 1, three traced runs that wrap the interfaces the engine
//      calls back (PlanProvider, CacheAdvisor, CheckpointHook, TraceSink) in
//      timing decorators, turn job/stage lifecycle events into spans, and
//      read the engine's StageMetrics/JobMetrics rows.
//
// Human-readable lines go to stdout; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exit code 0
// means every run passed its checks; 1 means a check failed; 2 is a usage
// error.
//
//   perfbench --workload kmeans-tuned|sql-tuned|kmeans-budget-wal
//             [--seed N] [--seconds S] [--trace 0|1] [--tiny]

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cacheplan/cacheplan.h"
#include "chaos.h"
#include "ckpt/checkpoint.h"
#include "ckpt/resume.h"
#include "common/stats.h"
#include "harness.h"
#include "obs/event_log.h"
#include "obs/history.h"
#include "obs/sinks.h"
#include "workloads/data_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace chopper;
namespace fs = std::filesystem;

namespace {

constexpr double kMiB = 1048576.0;

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

/// Host seconds since process start (steady clock).
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

/// Process CPU seconds (user + system, all threads).
double cpu_now_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  return common::percentile(std::move(v), 0.5);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double file_kb(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n) / 1024.0;
}

// -- host context -------------------------------------------------------------

/// Aggregate CPU ticks from /proc/stat (user..steal; guest time is already
/// inside user/nice).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

std::optional<CpuTicks> read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string label;
  if (!(f >> label) || label != "cpu") return std::nullopt;
  CpuTicks t;
  for (int i = 0; i < 8; ++i) {
    std::uint64_t v = 0;
    if (!(f >> v)) return std::nullopt;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto s = line.substr(colon + 1);
        s.erase(0, s.find_first_not_of(' '));
        return s;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// -- spans ----------------------------------------------------------------------

/// One timed interval. Containers (the traced run, jobs, stages, set-up
/// phases) are recorded on the driver thread and nest; leaves (decorated
/// calls) may come from any engine thread.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  bool container = false;
  long parent = -1;  ///< index of the innermost enclosing container
};

/// Thread-safe in-memory span store, written out when the benchmark ends.
class SpanRecorder {
 public:
  void add(std::string name, double start, double end, bool container) {
    std::lock_guard lock(mu_);
    spans_.push_back({std::move(name), start, end, container, -1});
  }
  std::vector<Span> take() {
    std::lock_guard lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Run `fn`, record it as a container span (when `rec` is set), return its
/// wall seconds.
template <class F>
double timed(SpanRecorder* rec, const char* name, F&& fn) {
  const double t0 = now_s();
  fn();
  const double t1 = now_s();
  if (rec != nullptr) rec->add(name, t0, t1, true);
  return t1 - t0;
}

/// Call count and wall time of one decorated interface.
struct CallStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
};

/// Times one call into `stats` and records it as a leaf span.
class Probe {
 public:
  Probe(CallStats& stats, SpanRecorder& rec, const char* name)
      : stats_(stats), rec_(rec), name_(name), t0_(now_s()) {}
  ~Probe() {
    const double t1 = now_s();
    stats_.calls.fetch_add(1, std::memory_order_relaxed);
    stats_.ns.fetch_add(static_cast<std::uint64_t>((t1 - t0_) * 1e9),
                        std::memory_order_relaxed);
    rec_.add(name_, t0_, t1, false);
  }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

 private:
  CallStats& stats_;
  SpanRecorder& rec_;
  const char* name_;
  double t0_;
};

/// Everything the decorators of one traced run count.
struct Probes {
  explicit Probes(SpanRecorder& r) : rec(r) {}
  SpanRecorder& rec;
  CallStats plan;    ///< PlanProvider lookups
  CallStats advise;  ///< CacheAdvisor::advise
  CallStats sink;    ///< JSONL TraceSink appends + flushes
  CallStats wal;     ///< checkpoint WAL appends + flushes
  CallStats hook;    ///< CheckpointHook block-file commits
  /// Reads the finished engine's rows into RunRecord::layer.
  std::function<void(const engine::Engine&, std::map<std::string, double>&)>
      inspect;
};

class TimedPlanProvider final : public engine::PlanProvider {
 public:
  TimedPlanProvider(std::shared_ptr<engine::PlanProvider> inner, Probes& p)
      : inner_(std::move(inner)), p_(p) {}
  std::optional<engine::PartitionScheme> scheme_for(
      std::uint64_t signature) override {
    Probe probe(p_.plan, p_.rec, "chopper.plan_lookup");
    return inner_->scheme_for(signature);
  }
  std::optional<engine::PartitionScheme> repartition_before(
      std::uint64_t signature) override {
    Probe probe(p_.plan, p_.rec, "chopper.plan_lookup");
    return inner_->repartition_before(signature);
  }

 private:
  std::shared_ptr<engine::PlanProvider> inner_;
  Probes& p_;
};

class TimedCacheAdvisor final : public engine::CacheAdvisor {
 public:
  TimedCacheAdvisor(std::shared_ptr<engine::CacheAdvisor> inner, Probes& p)
      : inner_(std::move(inner)), p_(p) {}
  engine::CachePlanSnapshot advise(const engine::JobPlan& plan,
                                   const std::string& job_name) override {
    Probe probe(p_.advise, p_.rec, "cacheplan.advise");
    return inner_->advise(plan, job_name);
  }

 private:
  std::shared_ptr<engine::CacheAdvisor> inner_;
  Probes& p_;
};

class TimedSink final : public obs::TraceSink {
 public:
  TimedSink(std::shared_ptr<obs::TraceSink> inner, CallStats& stats,
            SpanRecorder& rec, const char* name)
      : inner_(std::move(inner)), stats_(stats), rec_(rec), name_(name) {}
  void append(const obs::Event& e) override {
    Probe probe(stats_, rec_, name_);
    inner_->append(e);
  }
  void flush() override {
    Probe probe(stats_, rec_, name_);
    inner_->flush();
  }

 private:
  std::shared_ptr<obs::TraceSink> inner_;
  CallStats& stats_;
  SpanRecorder& rec_;
  const char* name_;
};

class TimedHook final : public engine::CheckpointHook {
 public:
  TimedHook(engine::CheckpointHook& inner, Probes& p) : inner_(inner), p_(p) {}
  void on_shuffle_committed(std::size_t job, std::size_t plan_index,
                            std::size_t consumer,
                            const engine::ShuffleOutput& so) override {
    Probe probe(p_.hook, p_.rec, "ckpt.hook");
    inner_.on_shuffle_committed(job, plan_index, consumer, so);
  }
  void on_cache_committed(std::size_t job, std::size_t plan_index,
                          std::size_t ordinal,
                          const engine::CachedDataset& cd) override {
    Probe probe(p_.hook, p_.rec, "ckpt.hook");
    inner_.on_cache_committed(job, plan_index, ordinal, cd);
  }
  void on_result_committed(
      std::size_t job, std::size_t plan_index,
      const std::vector<engine::Partition>& parts) override {
    Probe probe(p_.hook, p_.rec, "ckpt.hook");
    inner_.on_result_committed(job, plan_index, parts);
  }

 private:
  engine::CheckpointHook& inner_;
  Probes& p_;
};

/// Turns kJobSubmit/kJobFinish and kStageStart/kStageEnd into container
/// spans, stamped on arrival (emission is synchronous).
class LifecycleSpanSink final : public obs::TraceSink {
 public:
  explicit LifecycleSpanSink(SpanRecorder& rec) : rec_(rec) {}
  void append(const obs::Event& e) override {
    const double t = now_s();
    std::lock_guard lock(mu_);
    switch (e.kind) {
      case obs::EventKind::kJobSubmit: jobs_[e.job] = t; break;
      case obs::EventKind::kStageStart: stages_[e.stage] = t; break;
      case obs::EventKind::kJobFinish: close(jobs_, e.job, "engine.job", t); break;
      case obs::EventKind::kStageEnd:
        close(stages_, e.stage, "engine.stage", t);
        break;
      default: break;
    }
  }

 private:
  void close(std::map<std::uint64_t, double>& open, std::uint64_t id,
             const char* name, double t) {
    const auto it = open.find(id);
    if (it == open.end()) return;
    rec_.add(name, it->second, t, true);
    open.erase(it);
  }

  SpanRecorder& rec_;
  std::mutex mu_;
  std::map<std::uint64_t, double> jobs_;
  std::map<std::uint64_t, double> stages_;
};

struct SpanTotals {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Assign parents by containment and return per-name {count, total, self}.
std::map<std::string, SpanTotals> resolve_spans(std::vector<Span>& spans) {
  // Containers nest on the driver thread: sort them by (start, -end) and
  // walk a stack. Leaves take the innermost container holding their start.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].start != spans[b].start) return spans[a].start < spans[b].start;
    if (spans[a].container != spans[b].container) return spans[a].container;
    return spans[a].end > spans[b].end;
  });
  std::vector<std::size_t> stack;
  for (const std::size_t i : order) {
    while (!stack.empty() && spans[stack.back()].end <= spans[i].start) {
      stack.pop_back();
    }
    if (!stack.empty() && (!spans[i].container ||
                           spans[i].end <= spans[stack.back()].end)) {
      spans[i].parent = static_cast<long>(stack.back());
    }
    if (spans[i].container) stack.push_back(i);
  }
  // Self time: duration minus the union of the children's intervals.
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      const auto& p = spans[static_cast<std::size_t>(s.parent)];
      kids[static_cast<std::size_t>(s.parent)].emplace_back(
          std::max(s.start, p.start), std::min(s.end, p.end));
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_s = 0.0, cur_e = -1.0;
    for (const auto& [a, b] : iv) {
      if (a > cur_e) {
        if (cur_e > cur_s) covered += cur_e - cur_s;
        cur_s = a;
        cur_e = b;
      } else {
        cur_e = std::max(cur_e, b);
      }
    }
    if (cur_e > cur_s) covered += cur_e - cur_s;
    auto& t = totals[spans[i].name];
    const double dur = spans[i].end - spans[i].start;
    ++t.count;
    t.total_s += dur;
    t.self_s += std::max(0.0, dur - covered);
  }
  return totals;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%ld}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent);
  }
  std::fclose(f);
}

// -- workloads ------------------------------------------------------------------

enum class Kind { kKMeansTuned, kSqlTuned, kKMeansBudgetWal };

struct Config {
  std::string workload;
  Kind kind = Kind::kKMeansTuned;
  std::uint64_t seed = 0;
  double seconds = 15.0;
  bool trace = false;
  bool tiny = false;
};

/// Set-up passes per invocation; setup_s is their median.
constexpr std::size_t kSetups = 3;

/// The workload's inputs and configuration, fixed for the whole invocation.
struct Ctx {
  Config cfg;
  /// Exactly one of kmeans/sql is set: the workload at the run seed.
  std::unique_ptr<workloads::KMeansWorkload> kmeans;
  std::unique_ptr<workloads::SqlWorkload> sql;
  /// The same workload at the preset seeds (seed 0): what CHOPPER profiles.
  /// A plan is trained on earlier inputs and then applied to new ones; it
  /// also keeps the plan, and with it the task count, the same for every
  /// run seed. Profiling KMeans at the run seed flips Algorithm 3 between
  /// two near-equal-cost plans (9480 vs 11580 tasks, ~0.2 vs ~0.3 s wall).
  std::unique_ptr<workloads::Workload> profiled;
  engine::ClusterSpec cluster;   ///< cluster of the timed runs
  engine::EngineOptions options; ///< options of the timed runs
  engine::EngineOptions untuned_options;  ///< the untuned reference run's
  core::ChopperOptions chopper_options;

  bool tuned() const { return cfg.kind != Kind::kKMeansBudgetWal; }
  bool durable() const { return cfg.kind == Kind::kKMeansBudgetWal; }
  const workloads::Workload& workload() const {
    return kmeans ? static_cast<const workloads::Workload&>(*kmeans) : *sql;
  }
};

Ctx make_ctx(const Config& cfg) {
  Ctx c;
  c.cfg = cfg;
  c.chopper_options = bench::chopper_options();
  c.options = bench::vanilla_options();
  c.options.host_threads = 0;        // one task thread per core
  c.options.data_plane_threads = 1;  // data plane inline on the task thread
  c.cluster = bench::bench_cluster();
  c.untuned_options = c.options;
  if (cfg.tiny) {  // the chopperctl --tiny shrink
    c.chopper_options.profile_partitions = {100, 200, 300};
    c.chopper_options.profile_fractions = {1.0};
    c.chopper_options.profile_both_partitioners = false;
  }
  if (cfg.kind == Kind::kSqlTuned) {
    auto p = bench::sql_params();
    if (cfg.tiny) {
      p.fact.total_rows /= 20;
      p.fact.num_keys /= 20;
      p.dim.num_keys /= 20;
    }
    c.profiled = std::make_unique<workloads::SqlWorkload>(p);
    p.fact.seed += cfg.seed;
    p.dim.seed += cfg.seed;
    c.sql = std::make_unique<workloads::SqlWorkload>(p);
  } else {
    auto p = bench::kmeans_params();
    if (cfg.tiny) {
      p.data.total_points /= 20;
      p.init_rounds = 3;
    }
    c.profiled = std::make_unique<workloads::KMeansWorkload>(p);
    p.data.seed += cfg.seed;
    c.kmeans = std::make_unique<workloads::KMeansWorkload>(p);
  }
  if (cfg.kind == Kind::kKMeansBudgetWal) {
    // Storage/shuffle budgets and the OOM ceiling at 0.1x executor memory.
    c.cluster = bench::bench_cluster(0.1);
    c.options.memory.enforce = true;
    // Two task threads, not one per core. Every event is appended to two
    // mutex-guarded file sinks and block files are written at stage
    // commits, so on a small shared VM a thread the hypervisor preempts
    // holds up the others. On a 4-vCPU VM, run wall time spread 38-52%
    // (IQR / median) between invocations with one thread per vCPU, and
    // 16-37% with two.
    c.options.host_threads = 2;
    c.untuned_options.host_threads = 2;
  }
  return c;
}

/// A run's checked output.
struct Outcome {
  std::uint64_t digest = 0;
  double sim_s = 0.0;
  std::size_t tasks = 0;
  workloads::KMeansResult km;
  workloads::SqlResult sql;
};

Outcome execute(const Ctx& ctx, engine::Engine& eng) {
  Outcome o;
  if (ctx.kmeans) {
    o.km = ctx.kmeans->run_with_result(eng, 1.0);
  } else {
    o.sql = ctx.sql->run_with_result(eng, 1.0);
  }
  o.digest = bench::metrics_digest(eng.metrics());
  o.sim_s = eng.metrics().total_sim_time();
  for (const auto& s : eng.metrics().stages()) o.tasks += s.tasks.size();
  return o;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// KMeans cost recomputed on the driver: every generated point against its
/// nearest returned center. Independent of the engine and of partitioning.
double kmeans_cost_oracle(const Ctx& ctx,
                          const std::vector<std::vector<double>>& centers) {
  const auto& p = ctx.kmeans->params();
  const auto source = workloads::gaussian_mixture_source(p.data);
  double cost = 0.0;
  for (std::size_t i = 0; i < p.source_partitions; ++i) {
    const engine::Partition part = source(i, p.source_partitions);
    for (const auto& r : part.records()) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : centers) {
        double d2 = 0.0;
        for (std::size_t j = 0; j < c.size(); ++j) {
          const double d = r.values[j] - c[j];
          d2 += d * d;
        }
        best = std::min(best, d2);
      }
      cost += best;
    }
  }
  return cost;
}

bool near(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

/// Empty when `o`'s workload result matches `ref`: KMeans centers and cost
/// bit-identical (same partitioning), SQL joined_rows exact and revenue
/// within 1e-9 relative.
std::string check_result(const Ctx& ctx, const Outcome& o, const Outcome& ref) {
  if (ctx.kmeans) {
    if (!same_bits(o.km.cost, ref.km.cost)) return "kmeans cost differs";
    if (o.km.centers.size() != ref.km.centers.size()) return "center count";
    for (std::size_t i = 0; i < o.km.centers.size(); ++i) {
      const auto& a = o.km.centers[i];
      const auto& b = ref.km.centers[i];
      if (a.size() != b.size()) return "center width";
      for (std::size_t j = 0; j < a.size(); ++j) {
        if (!same_bits(a[j], b[j])) return "kmeans centers differ";
      }
    }
    return "";
  }
  if (o.sql.joined_rows != ref.sql.joined_rows) return "sql joined_rows differ";
  if (!near(o.sql.total_revenue, ref.sql.total_revenue)) {
    return "sql total_revenue differs";
  }
  return "";
}

/// One timed run plus what the checks and the traced run need from it.
struct RunRecord {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double ctor_s = 0.0;
  Outcome out;
  std::uint64_t events = 0;  ///< events emitted through the run's EventLog
  std::string failure;       ///< first failed check; empty when all passed
  double replay_s = 0.0;     ///< HistoryReader load + replay of the log
  double log_kb = 0.0;
  std::uint64_t block_files = 0;
  std::uint64_t block_bytes = 0;
  std::map<std::string, double> layer;  ///< traced runs: engine-row metrics
};

/// Per-layer numbers read from the engine's public metrics rows.
std::map<std::string, double> engine_layers(const engine::Engine& eng) {
  std::map<std::string, double> m;
  double job_wall = 0.0, stage_wall = 0.0, cache_s = 0.0, source_s = 0.0,
         reduce_s = 0.0, join_s = 0.0, wmb = 0.0, rmb = 0.0, records = 0.0,
         tasks = 0.0;
  for (const auto& s : eng.metrics().stages()) {
    stage_wall += s.wall_time_s;
    tasks += static_cast<double>(s.tasks.size());
    records += static_cast<double>(s.input_records);
    wmb += static_cast<double>(s.shuffle_write_bytes) / kMiB;
    rmb += static_cast<double>(s.shuffle_read_bytes) / kMiB;
    if (s.cache_hits + s.cache_misses > 0) {
      cache_s += s.wall_time_s;
    } else if (s.anchor_op == engine::OpKind::kSource) {
      source_s += s.wall_time_s;
    } else if (s.anchor_op == engine::OpKind::kReduceByKey ||
               s.anchor_op == engine::OpKind::kGroupByKey) {
      reduce_s += s.wall_time_s;
    } else if (s.anchor_op == engine::OpKind::kJoin ||
               s.anchor_op == engine::OpKind::kCoGroup) {
      join_s += s.wall_time_s;
    }
  }
  double hits = 0.0, misses = 0.0, evicted = 0.0, attempts = 0.0, ooms = 0.0,
         recomputed = 0.0, spilled = 0.0, peak = 0.0;
  for (const auto& j : eng.metrics().jobs()) {
    job_wall += j.wall_time_s;
    hits += static_cast<double>(j.cache_hits);
    misses += static_cast<double>(j.cache_misses);
    evicted += static_cast<double>(j.evicted_bytes) / kMiB;
    attempts += static_cast<double>(j.stage_attempts);
    ooms += static_cast<double>(j.oom_count);
    recomputed += static_cast<double>(j.recomputed_tasks);
    spilled += static_cast<double>(j.spilled_bytes) / kMiB;
    peak = std::max(peak, static_cast<double>(j.peak_resident_bytes) / kMiB);
  }
  m["engine.driver_s"] = job_wall - stage_wall;
  m["engine.stages"] = static_cast<double>(eng.metrics().stages().size());
  m["engine.tasks"] = tasks;
  m["engine.cache_stage_s"] = cache_s;
  m["engine.source_stage_s"] = source_s;
  m["engine.records_in"] = records;
  m["engine.reduce_stage_s"] = reduce_s;
  m["engine.join_stage_s"] = join_s;
  m["engine.shuffle_write_mb"] = wmb;
  m["engine.shuffle_read_mb"] = rmb;
  m["block.cache_hits"] = hits;
  m["block.cache_misses"] = misses;
  m["block.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  m["block.evicted_mb"] = evicted;
  m["engine.stage_attempts"] = attempts;
  m["engine.oom_retries"] = ooms;
  m["engine.recomputed_tasks"] = recomputed;
  m["engine.spilled_mb"] = spilled;
  m["engine.peak_resident_mb"] = peak;
  return m;
}

/// One run on a fresh Engine: timed from the run's first allocation (log
/// and WAL files on kmeans-budget-wal, then the Engine) to Workload::run
/// return, plus the log/WAL flush on kmeans-budget-wal. `provider` is the
/// tuned plan (null: untuned). `probes` arms the traced-run decorators.
RunRecord run_once(const Ctx& ctx, std::shared_ptr<engine::PlanProvider> provider,
                   const std::string& tag, Probes* probes) {
  RunRecord r;
  const std::string log_path = tag + ".jsonl";
  const std::string ckpt_dir = tag + ".ckpt";
  obs::EventLog log;  // outlives the engine, which holds a raw pointer to it
  std::shared_ptr<ckpt::CheckpointWriter> writer;
  std::unique_ptr<TimedHook> timed_hook;

  const double t0 = now_s();
  const double c0 = cpu_now_s();
  if (ctx.durable()) {
    std::shared_ptr<obs::TraceSink> jsonl =
        std::make_shared<obs::JsonlFileSink>(log_path);
    writer = std::make_shared<ckpt::CheckpointWriter>(ckpt_dir);
    std::shared_ptr<obs::TraceSink> wal = writer;
    if (probes != nullptr) {
      jsonl = std::make_shared<TimedSink>(jsonl, probes->sink, probes->rec,
                                          "obs.sink");
      wal = std::make_shared<TimedSink>(wal, probes->wal, probes->rec,
                                        "ckpt.wal");
    }
    log.attach(std::move(jsonl));
    log.attach(std::move(wal));
  }
  if (probes != nullptr) {
    log.attach(std::make_shared<LifecycleSpanSink>(probes->rec));
  }
  const double tc = now_s();
  engine::Engine eng(ctx.cluster, ctx.options);
  r.ctor_s = now_s() - tc;
  if (probes != nullptr) probes->rec.add("engine.ctor", tc, tc + r.ctor_s, true);
  eng.set_event_log(&log);  // idle (no sink) on untraced tuned runs
  if (ctx.durable()) {
    if (probes != nullptr) {
      timed_hook = std::make_unique<TimedHook>(*writer, *probes);
      eng.set_checkpoint_hook(timed_hook.get());
    } else {
      eng.set_checkpoint_hook(writer.get());
    }
    auto planner = std::make_shared<cacheplan::CachePlanner>();
    planner->set_event_log(&log);
    if (probes != nullptr) {
      eng.set_cache_advisor(std::make_shared<TimedCacheAdvisor>(planner, *probes));
    } else {
      eng.set_cache_advisor(planner);
    }
    eng.block_manager().set_eviction_policy(engine::EvictionPolicy::kCost);
  }
  if (provider != nullptr) {
    if (probes != nullptr) {
      eng.set_plan_provider(std::make_shared<TimedPlanProvider>(provider, *probes));
    } else {
      eng.set_plan_provider(provider);
    }
  }
  r.out = execute(ctx, eng);
  if (ctx.durable()) {  // flush the JSONL log and the WAL
    const double tf = now_s();
    log.detach_all();
    if (probes != nullptr) probes->rec.add("obs.flush", tf, now_s(), true);
  }
  r.wall_s = now_s() - t0;
  r.cpu_s = cpu_now_s() - c0;
  r.events = log.emitted();

  if (probes != nullptr) {
    r.layer = engine_layers(eng);
    if (probes->inspect) probes->inspect(eng, r.layer);
  }
  if (ctx.durable()) {
    r.log_kb = file_kb(log_path);
    r.block_files = writer->blocks_written();
    r.block_bytes = writer->block_bytes_written();
    try {
      const double tr = now_s();
      engine::MetricsRegistry replayed;
      obs::HistoryReader::load(log_path).replay_into(replayed);
      r.replay_s = now_s() - tr;
      if (probes != nullptr) {
        probes->rec.add("obs.history_replay", tr, tr + r.replay_s, true);
      }
      if (bench::metrics_digest(replayed) != r.out.digest) {
        r.failure = "history replay digest differs from the live run";
      }
      const double td = now_s();
      const auto plan = ckpt::build_resume_plan(ckpt_dir);
      if (probes != nullptr) {
        probes->rec.add("ckpt.resume_decode", td, now_s(), true);
      }
      if (r.failure.empty() &&
          plan.finished_jobs != eng.metrics().jobs().size()) {
        r.failure = "WAL decodes " + std::to_string(plan.finished_jobs) +
                    " finished jobs, the run had " +
                    std::to_string(eng.metrics().jobs().size());
      }
    } catch (const std::exception& e) {
      r.failure = std::string("log/WAL check threw: ") + e.what();
    }
    std::error_code ec;
    fs::remove(log_path, ec);
    fs::remove_all(ckpt_dir, ec);
  }
  return r;
}

// -- set-up -----------------------------------------------------------------------

/// Artifacts and timings of one set-up pass.
struct Setup {
  std::unique_ptr<core::Chopper> chopper;               ///< tuned only
  std::shared_ptr<core::ConfigPlanProvider> provider;   ///< tuned only
  std::vector<std::pair<std::string, std::string>> conf;  ///< plan config
  std::set<std::uint64_t> planned;  ///< signatures the plan covers
  Outcome untuned;    ///< untuned, unconstrained reference run
  Outcome reference;  ///< one run under the timed configuration
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::map<std::string, double> layer;  ///< chopper.* set-up metrics
};

/// The run whose workload result a timed run must reproduce. KMeans results
/// depend on the partitioning (initialization samples per partition), so a
/// tuned KMeans run is held to the set-up run under the same plan; every
/// other workload to the untuned reference.
const Outcome& result_reference(const Ctx& ctx, const Setup& s) {
  return ctx.cfg.kind == Kind::kKMeansTuned ? s.reference : s.untuned;
}

Setup run_setup(const Ctx& ctx, std::size_t pass, SpanRecorder* rec) {
  Setup s;
  const std::string name = ctx.workload().name();
  const double t0 = now_s();
  const double c0 = cpu_now_s();
  std::size_t profile_runs = 0;
  if (ctx.tuned()) {
    s.chopper = std::make_unique<core::Chopper>(ctx.cluster, ctx.chopper_options);
    const core::WorkloadRunner runner = [&](engine::Engine& eng, double scale) {
      ++profile_runs;
      timed(rec, "chopper.profile_run", [&] { ctx.profiled->run(eng, scale); });
    };
    double input_bytes = 0.0;
    const std::string db_path = "setup-" + std::to_string(pass) + ".chopperdb";
    const std::string conf_path = "setup-" + std::to_string(pass) + ".conf";
    s.layer["chopper.profile_s"] = timed(rec, "chopper.profile", [&] {
      input_bytes = s.chopper->profile(name, runner, 1.0);
    });
    s.layer["chopper.profile_runs"] = static_cast<double>(profile_runs);
    s.layer["chopper.db_save_s"] =
        timed(rec, "chopper.db_save", [&] { s.chopper->save_db(db_path); });
    s.layer["chopper.db_kb"] = file_kb(db_path);
    s.layer["chopper.db_load_s"] =
        timed(rec, "chopper.db_load", [&] { s.chopper->load_db(db_path); });
    std::vector<core::PlannedStage> plan;
    s.layer["chopper.plan_s"] = timed(
        rec, "chopper.plan", [&] { plan = s.chopper->plan(name, input_bytes); });
    common::KvConfig loaded;
    s.layer["chopper.conf_roundtrip_s"] =
        timed(rec, "chopper.conf_roundtrip", [&] {
          s.chopper->plan_config(plan).save(conf_path);
          loaded = common::KvConfig::load(conf_path);
          s.provider = s.chopper->make_provider(plan);
        });
    if (loaded.entries() != s.chopper->plan_config(plan).entries()) {
      throw std::runtime_error("plan config changed across save/load");
    }
    s.conf = loaded.entries();
    for (const auto& ps : plan) s.planned.insert(ps.signature);
    std::error_code ec;
    fs::remove(db_path, ec);
    fs::remove(conf_path, ec);
  }
  timed(rec, "bench.untuned_run", [&] {
    engine::Engine eng(bench::bench_cluster(), ctx.untuned_options);
    s.untuned = execute(ctx, eng);
  });
  timed(rec, "bench.reference_run", [&] {
    RunRecord ref = run_once(ctx, s.provider, "setup-ref", nullptr);
    if (!ref.failure.empty()) throw std::runtime_error(ref.failure);
    s.reference = ref.out;
  });
  if (ctx.kmeans) {
    timed(rec, "bench.cost_oracle", [&] {
      for (const Outcome* o : {&s.untuned, &s.reference}) {
        if (!near(o->km.cost, kmeans_cost_oracle(ctx, o->km.centers))) {
          throw std::runtime_error("kmeans cost does not match its centers");
        }
      }
    });
  }
  const std::string bad = check_result(ctx, s.reference, result_reference(ctx, s));
  if (!bad.empty()) throw std::runtime_error("reference run: " + bad);
  s.wall_s = now_s() - t0;
  s.cpu_s = cpu_now_s() - c0;
  return s;
}

// -- output -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload kmeans-tuned|sql-tuned|"
               "kmeans-budget-wal [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--tiny]\n",
               msg);
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config c;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage((std::string("missing value for ") + argv[i]).c_str());
    return argv[++i];
  };
  auto number = [&](int& i) -> double {
    const std::string flag = argv[i];
    const std::string v = value(i);
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || !(d >= 0.0)) {
      usage(("invalid number for " + flag + ": '" + v + "'").c_str());
    }
    return d;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") {
      c.workload = value(i);
    } else if (a == "--seed") {
      c.seed = static_cast<std::uint64_t>(number(i));
    } else if (a == "--seconds") {
      c.seconds = number(i);
    } else if (a == "--trace") {
      c.trace = number(i) != 0.0;
    } else if (a == "--tiny") {
      c.tiny = true;
    } else {
      usage(("unknown argument '" + a + "'").c_str());
    }
  }
  if (c.workload == "kmeans-tuned") {
    c.kind = Kind::kKMeansTuned;
  } else if (c.workload == "sql-tuned") {
    c.kind = Kind::kSqlTuned;
  } else if (c.workload == "kmeans-budget-wal") {
    c.kind = Kind::kKMeansBudgetWal;
  } else {
    usage(c.workload.empty() ? "--workload is required"
                             : ("unknown workload '" + c.workload + "'").c_str());
  }
  return c;
}

/// Median of `key` over several metric maps (0 when absent).
double median_of(const std::vector<std::map<std::string, double>>& maps,
                 const std::string& key) {
  std::vector<double> v;
  for (const auto& m : maps) {
    const auto it = m.find(key);
    v.push_back(it == m.end() ? 0.0 : it->second);
  }
  return median(std::move(v));
}

/// Single-threaded pass of the workload's public SourceFns over the run's
/// input: {seconds, MiB generated}.
std::pair<double, double> measure_datagen(const Ctx& ctx, SpanRecorder& rec) {
  double bytes = 0.0;
  auto drain = [&](const engine::SourceFn& fn, std::size_t parts) {
    for (std::size_t i = 0; i < parts; ++i) {
      bytes += static_cast<double>(fn(i, parts).bytes());
    }
  };
  const double s = timed(&rec, "workloads.datagen", [&] {
    if (ctx.kmeans) {
      const auto& p = ctx.kmeans->params();
      drain(workloads::gaussian_mixture_source(p.data), p.source_partitions);
    } else {
      const auto& p = ctx.sql->params();
      drain(workloads::fact_table_source(p.fact), p.fact_partitions);
      drain(workloads::dim_table_source(p.dim), p.dim_partitions);
    }
  });
  return {s, bytes / kMiB};
}

/// Median |predicted t_exe - observed sim time| / observed over the stages
/// the plan covers, in percent.
double model_error_pct(Setup& setup, const std::string& workload,
                       const engine::Engine& eng) {
  std::vector<double> errs;
  for (const auto& s : eng.metrics().stages()) {
    if (setup.planned.count(s.signature) == 0 || s.sim_time_s <= 0.0) continue;
    const core::StageModel* model =
        setup.chopper->db().model(workload, s.signature, s.partitioner);
    const double pred =
        model->predict_texe(static_cast<double>(s.input_bytes),
                            static_cast<double>(s.num_partitions));
    errs.push_back(100.0 * std::abs(pred - s.sim_time_s) / s.sim_time_s);
  }
  return median(std::move(errs));
}

int run(const Config& cfg) {
  const Ctx ctx = make_ctx(cfg);
  const auto nproc = std::thread::hardware_concurrency();
  const std::size_t host_threads =
      ctx.options.host_threads != 0 ? ctx.options.host_threads : nproc;
  const std::string model = cpu_model();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.tiny ? " tiny" : "");
  std::fflush(stdout);

  // 1. Set-up, repeated; the last pass's artifacts drive the timed runs.
  SpanRecorder rec;
  std::vector<Setup> setups;
  for (std::size_t pass = 0; pass < kSetups; ++pass) {
    const double ts = now_s();
    setups.push_back(run_setup(ctx, pass, &rec));
    rec.add("bench.setup", ts, now_s(), true);
    const Setup& s = setups.back();
    std::printf("setup %zu: %.3f s wall, %.3f s cpu, sim %.4f s (untuned %.4f s)"
                ", %zu tasks (untuned %zu), digest %016llx\n",
                pass, s.wall_s, s.cpu_s, s.reference.sim_s, s.untuned.sim_s,
                s.reference.tasks, s.untuned.tasks,
                static_cast<unsigned long long>(s.reference.digest));
    std::fflush(stdout);
    if (s.conf != setups.front().conf ||
        s.reference.digest != setups.front().reference.digest ||
        s.untuned.digest != setups.front().untuned.digest) {
      std::fprintf(stderr, "perfbench: set-up pass %zu is not deterministic\n",
                   pass);
      return 1;
    }
  }
  Setup& setup = setups.back();

  // 2. Timed closed loop.
  std::vector<double> walls, cpus;
  std::size_t attempted = 0, failed = 0;
  std::uint64_t untraced_events = 0;
  std::string first_failure;
  const auto ticks0 = read_cpu_ticks();
  const double loop_start = now_s();
  double timed_wall = 0.0;
  while (attempted == 0 || now_s() - loop_start < cfg.seconds) {
    ++attempted;
    RunRecord r;
    try {
      r = run_once(ctx, setup.provider, "run", nullptr);
      if (r.failure.empty() && r.out.digest != setup.reference.digest) {
        r.failure = "metrics digest differs from the set-up reference";
      }
      if (r.failure.empty()) {
        r.failure = check_result(ctx, r.out, result_reference(ctx, setup));
      }
    } catch (const std::exception& e) {
      r.failure = std::string("run threw: ") + e.what();
    }
    if (!r.failure.empty()) {
      ++failed;
      if (first_failure.empty()) first_failure = r.failure;
      continue;
    }
    walls.push_back(r.wall_s);
    cpus.push_back(r.cpu_s);
    timed_wall += r.wall_s;
    if (ctx.tuned()) untraced_events += r.events;
  }
  const auto ticks1 = read_cpu_ticks();
  double steal_pct = 0.0;
  if (ticks0 && ticks1 && ticks1->total > ticks0->total) {
    steal_pct = 100.0 * static_cast<double>(ticks1->steal - ticks0->steal) /
                static_cast<double>(ticks1->total - ticks0->total);
  }
  if (ctx.tuned() && untraced_events != 0) {
    ++failed;
    first_failure = "untraced tuned runs emitted events through an idle log";
  }

  std::vector<double> setup_walls, setup_cpus;
  for (const auto& s : setups) {
    setup_walls.push_back(s.wall_s);
    setup_cpus.push_back(s.cpu_s);
  }
  std::vector<double> sorted = walls;
  std::sort(sorted.begin(), sorted.end());
  // Tail: the highest percentile with at least ten samples beyond it (the
  // maximum when fewer than eleven runs completed).
  const std::size_t n = sorted.size();
  const std::size_t rank = n > 10 ? n - 10 : n;  // 1-based
  const double tail = n > 0 ? sorted[rank - 1] : 0.0;
  const double tail_pct = n > 0 ? 100.0 * static_cast<double>(rank) /
                                      static_cast<double>(n)
                                : 0.0;
  const double input_mb =
      static_cast<double>(ctx.workload().input_bytes(1.0)) / kMiB;
  const double gain = ctx.tuned() && setup.untuned.sim_s > 0.0
                          ? 100.0 * (setup.untuned.sim_s - setup.reference.sim_s) /
                                setup.untuned.sim_s
                          : 0.0;
  const double failed_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);

  std::vector<Metric> e2e = {
      {"setup_s", median(setup_walls), "s"},
      {"setup_cpu_s", median(setup_cpus), "s"},
      {"run_wall_p50_s", median(walls), "s"},
      {"run_cpu_p50_s", median(cpus), "s"},
      {"input_mb_per_s",
       timed_wall > 0.0 ? input_mb * static_cast<double>(n) / timed_wall : 0.0,
       "MB/s"},
      {"sim_makespan_s", setup.reference.sim_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("host: nproc=%u host_threads=%zu cpu=\"%s\" build=%s "
              "host.steal_pct=%.3f\n",
              nproc, host_threads, model.c_str(), PERFBENCH_BUILD_TYPE,
              steal_pct);
  print_metrics("end-to-end (untraced runs):", e2e);
  std::printf("  %-26s %16.6f %s (p%.1f of %zu runs, %zu beyond it)\n",
              "run_wall_tail_s", tail, "s", tail_pct, n, n - rank);
  std::printf("  %-26s %16.6f %s\n", "failed_run_ratio", failed_ratio, "ratio");
  if (ctx.tuned()) {
    std::printf("  %-26s %16.6f %s\n", "sim_gain_pct", gain, "%");
  } else {
    std::printf("  %-26s %16s %s\n", "sim_gain_pct", "n/a", "% (untuned workload)");
  }
  if (!first_failure.empty()) {
    std::printf("FAILED %zu of %zu runs; first: %s\n", failed, attempted,
                first_failure.c_str());
  }

  std::string context =
      "{\"workload\": \"" + cfg.workload + "\", \"seed\": " +
      std::to_string(cfg.seed) + ", \"nproc\": " + std::to_string(nproc) +
      ", \"host_threads\": " + std::to_string(host_threads) +
      ", \"cpu_model\": \"" + json_escape(model) + "\", \"build_type\": \"" +
      PERFBENCH_BUILD_TYPE + "\"";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                ", \"host.steal_pct\": %.6g, \"runs\": %zu, "
                "\"run_wall_tail_s\": %.17g, \"run_wall_tail_pct\": %.4g, "
                "\"run_wall_tail_beyond\": %zu, "
                "\"sim_gain_pct\": %.17g, \"failed_run_ratio\": %.6g, "
                "\"digest\": \"%016llx\", \"untraced_events\": %llu}",
                steal_pct, n, tail, tail_pct, n - rank, gain, failed_ratio,
                static_cast<unsigned long long>(setup.reference.digest),
                static_cast<unsigned long long>(untraced_events));
  context += buf;
  std::printf("context: %s\n", context.c_str());

  if (!cfg.trace) {
    print_result(failed == 0, attempted, failed, e2e);
    return failed == 0 ? 0 : 1;
  }

  // 3. Traced runs: decorators + lifecycle spans + engine rows.
  std::vector<std::map<std::string, double>> traced;
  std::vector<double> traced_walls;
  for (int i = 0; i < 3; ++i) {
    Probes probes(rec);
    if (ctx.tuned()) {
      probes.inspect = [&](const engine::Engine& eng,
                           std::map<std::string, double>& m) {
        m["chopper.model_err_pct"] =
            model_error_pct(setup, ctx.workload().name(), eng);
      };
    }
    const double t0 = now_s();
    RunRecord r = run_once(ctx, setup.provider, "traced", &probes);
    rec.add("bench.traced_run", t0, now_s(), true);
    if (r.failure.empty() && r.out.digest != setup.reference.digest) {
      r.failure = "traced run digest differs from the untraced reference";
    }
    if (!r.failure.empty()) {
      std::printf("FAILED traced run: %s\n", r.failure.c_str());
      ++failed;
      ++attempted;
      continue;
    }
    auto m = r.layer;
    m["engine.ctor_s"] = r.ctor_s;
    m["chopper.plan_lookups"] = static_cast<double>(probes.plan.calls.load());
    m["chopper.plan_lookup_s"] = probes.plan.seconds();
    m["cacheplan.advise_calls"] = static_cast<double>(probes.advise.calls.load());
    m["cacheplan.advise_s"] = probes.advise.seconds();
    m["obs.events"] = static_cast<double>(probes.sink.calls.load());
    m["obs.sink_s"] = probes.sink.seconds();
    m["obs.log_kb"] = r.log_kb;
    m["obs.history_replay_s"] = r.replay_s;
    m["ckpt.wal_s"] = probes.wal.seconds();
    m["ckpt.hook_s"] = probes.hook.seconds();
    m["ckpt.block_files"] = static_cast<double>(r.block_files);
    m["ckpt.block_mb"] = static_cast<double>(r.block_bytes) / kMiB;
    traced.push_back(std::move(m));
    traced_walls.push_back(r.wall_s);
  }
  const auto [datagen_s, datagen_mb] = measure_datagen(ctx, rec);
  const double p50 = median(walls);

  std::vector<Metric> layers;
  auto add = [&](const std::string& name, double v, const char* unit) {
    layers.push_back({name, v, unit});
  };
  auto traced_metric = [&](const std::string& name, const char* unit) {
    add(name, median_of(traced, name), unit);
  };
  auto setup_metric = [&](const std::string& name, const char* unit) {
    std::vector<std::map<std::string, double>> maps;
    for (const auto& s : setups) maps.push_back(s.layer);
    add(name, median_of(maps, name), unit);
  };
  add("workloads.datagen_s", datagen_s, "s");
  add("workloads.input_mb", datagen_mb, "MB");
  traced_metric("engine.ctor_s", "s");
  traced_metric("engine.driver_s", "s");
  traced_metric("engine.stages", "count");
  traced_metric("engine.tasks", "count");
  traced_metric("engine.cache_stage_s", "s");
  traced_metric("engine.source_stage_s", "s");
  traced_metric("engine.records_in", "count");
  traced_metric("engine.reduce_stage_s", "s");
  traced_metric("engine.join_stage_s", "s");
  traced_metric("engine.shuffle_write_mb", "MB");
  traced_metric("engine.shuffle_read_mb", "MB");
  traced_metric("block.cache_hits", "count");
  traced_metric("block.cache_misses", "count");
  traced_metric("block.cache_hit_ratio", "ratio");
  traced_metric("block.evicted_mb", "MB");
  traced_metric("engine.stage_attempts", "count");
  traced_metric("engine.oom_retries", "count");
  traced_metric("engine.recomputed_tasks", "count");
  traced_metric("engine.spilled_mb", "MB");
  traced_metric("engine.peak_resident_mb", "MB");
  setup_metric("chopper.profile_s", "s");
  setup_metric("chopper.profile_runs", "count");
  setup_metric("chopper.db_save_s", "s");
  setup_metric("chopper.db_load_s", "s");
  setup_metric("chopper.db_kb", "KB");
  setup_metric("chopper.plan_s", "s");
  setup_metric("chopper.conf_roundtrip_s", "s");
  traced_metric("chopper.plan_lookups", "count");
  traced_metric("chopper.plan_lookup_s", "s");
  traced_metric("chopper.model_err_pct", "%");
  traced_metric("cacheplan.advise_calls", "count");
  traced_metric("cacheplan.advise_s", "s");
  traced_metric("obs.events", "count");
  traced_metric("obs.sink_s", "s");
  traced_metric("obs.log_kb", "KB");
  traced_metric("obs.history_replay_s", "s");
  traced_metric("ckpt.wal_s", "s");
  traced_metric("ckpt.hook_s", "s");
  traced_metric("ckpt.block_files", "count");
  traced_metric("ckpt.block_mb", "MB");
  add("obs.trace_overhead_pct",
      p50 > 0.0 ? 100.0 * (median(traced_walls) - p50) / p50 : 0.0, "%");
  add("host.steal_pct", steal_pct, "%");

  std::vector<Span> spans = rec.take();
  const auto totals = resolve_spans(spans);
  const std::string spans_path = "spans-" + cfg.workload + ".jsonl";
  write_spans(spans_path, spans);
  std::printf("span self time (set-up passes and %zu traced runs; spans in %s):\n",
              traced.size(), spans_path.c_str());
  std::printf("  %-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s");
  for (const auto& [name, t] : totals) {
    std::printf("  %-24s %8zu %12.6f %12.6f\n", name.c_str(), t.count, t.total_s,
                t.self_s);
  }
  print_metrics("per-layer (traced runs):", layers);
  print_result(failed == 0, attempted, failed, layers);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = parse_args(argc, argv);
  try {
    return run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
