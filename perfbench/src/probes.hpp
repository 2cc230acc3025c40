// Measurement plumbing shared by every perfbench workload.
//
// All timing happens outside the library: the workloads call the layers'
// public functions and, where a per-layer split is needed, pass the wrapper
// objects below through the seams the library already exposes (rl::Env,
// abr::AbrProtocol, cc::CcSender, serve::BatchPolicy). Per-call boundaries
// are aggregated into Tally counters; coarse boundaries (train calls,
// updates, record/replay calls, engine runs, ticks, jobs) become Spans.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "abr/protocol.hpp"
#include "cc/sender.hpp"
#include "rl/env.hpp"
#include "serve/batch_policy.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the result line's fields plus
/// free-form `key=value` notes printed on the line before it.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  /// Marks `ok` as one attempted operation; a false check also fails it.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for campaign artifacts and the traced run's spans.
  std::string work_dir = ".bench_build/perfbench-work";
};

// ---------------------------------------------------------------------------
// Statistics

inline double median(const std::vector<double>& values) {
  return netadv::util::percentile(values, 50.0);
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Aggregated per-call timers (thread-safe; record/replay run on the pool).

struct Tally {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> ns{0};
  void add(Clock::time_point start) {
    count.fetch_add(1, std::memory_order_relaxed);
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - start)
                         .count()),
                 std::memory_order_relaxed);
  }
  double seconds() const { return 1e-9 * static_cast<double>(ns.load()); }
};

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out once at the end of the run.

class Tracer {
 public:
  using Id = std::uint64_t;
  /// Opens a span; returns 0 (and records nothing) when disabled.
  Id begin(const std::string& name, Id parent);
  void end(Id id);
  /// Records an already finished span (no-op when disabled).
  void add(const std::string& name, Id parent, Clock::time_point start,
           Clock::time_point end);
  void set_enabled(bool on) { enabled_.store(on); }
  std::size_t size() const;
  /// JSON array of {id, parent, name, start_s, end_s}.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    Id id = 0;
    Id parent = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = -1.0;  ///< -1 while open
  };
  Clock::time_point origin_ = Clock::now();
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, Tracer::Id parent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Tracer::Id id() const { return id_; }

 private:
  Tracer& tracer_;
  Tracer::Id id_;
};

// ---------------------------------------------------------------------------
// Wrappers passed through the library's public seams.

/// Times step() and reset() of the wrapped env.
class TimedEnv final : public netadv::rl::Env {
 public:
  explicit TimedEnv(netadv::rl::Env& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  std::size_t observation_size() const override {
    return inner_.observation_size();
  }
  netadv::rl::ActionSpec action_spec() const override {
    return inner_.action_spec();
  }
  netadv::rl::Vec reset(netadv::util::Rng& rng) override;
  netadv::rl::StepResult step(const netadv::rl::Vec& action,
                              netadv::util::Rng& rng) override;

  Tally steps;
  Tally resets;

 private:
  netadv::rl::Env& inner_;
};

/// Times choose_quality() of an owned protocol into a shared tally.
class TimedProtocol final : public netadv::abr::AbrProtocol {
 public:
  TimedProtocol(std::unique_ptr<netadv::abr::AbrProtocol> inner, Tally& tally)
      : inner_(std::move(inner)), tally_(tally) {}
  std::string name() const override { return inner_->name(); }
  void begin_video(const netadv::abr::VideoManifest& manifest) override {
    inner_->begin_video(manifest);
  }
  std::size_t choose_quality(
      const netadv::abr::AbrObservation& observation) override;

 private:
  std::unique_ptr<netadv::abr::AbrProtocol> inner_;
  Tally& tally_;
};

/// Counts and times the ACK and loss callbacks of an owned sender.
class TimedSender final : public netadv::cc::CcSender {
 public:
  struct Tallies {
    Tally acks;
    Tally losses;
    double seconds() const { return acks.seconds() + losses.seconds(); }
  };
  TimedSender(std::unique_ptr<netadv::cc::CcSender> inner, Tallies& tallies)
      : inner_(std::move(inner)), tallies_(tallies) {}
  std::string name() const override { return inner_->name(); }
  void start(double now_s) override { inner_->start(now_s); }
  void on_ack(const netadv::cc::AckInfo& ack) override;
  void on_loss(const netadv::cc::LossInfo& loss) override;
  double pacing_rate_bps() const override { return inner_->pacing_rate_bps(); }
  double cwnd_packets() const override { return inner_->cwnd_packets(); }

 private:
  std::unique_ptr<netadv::cc::CcSender> inner_;
  Tallies& tallies_;
};

/// Records when each choose_batch call starts, how long it takes, and its
/// batch size. The engine calls choose_batch exactly once per tick, so the
/// gaps between call starts are the tick times.
class TickPolicy final : public netadv::serve::BatchPolicy {
 public:
  explicit TickPolicy(netadv::serve::BatchPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void begin_serving(const netadv::abr::VideoManifest& manifest) override;
  std::vector<std::size_t> choose_batch(
      std::span<const netadv::abr::AbrObservation* const> observations)
      override;

  /// Tick durations of the run that ended at `run_end` (seconds).
  std::vector<double> tick_seconds(Clock::time_point run_end) const;
  /// Records one span per tick under `parent` (call after the run).
  void add_tick_spans(Tracer& tracer, Tracer::Id parent,
                      Clock::time_point run_end) const;
  double decide_seconds() const;
  std::size_t decisions() const;
  std::size_t ticks() const { return starts_.size(); }

 private:
  netadv::serve::BatchPolicy& inner_;
  std::vector<Clock::time_point> starts_;
  std::vector<double> decide_s_;
  std::vector<std::size_t> batch_sizes_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics. Every workload prints every name (zero where the
// workload does not reach the layer), so the traced result line always has
// the same keys.

struct LayerMetric {
  const char* name;
  const char* unit;
  bool count;  ///< deterministic count (must repeat exactly for a seed)
};
const std::vector<LayerMetric>& layer_metrics();

/// One traced round's per-layer values, by metric name. Parts add to it;
/// values of the same name from two parts are summed.
using LayerSample = std::map<std::string, double>;

/// Adds each value to `sample` under its name.
void add_layers(LayerSample& sample, const LayerSample& values);

/// Folds traced rounds into the printed per-layer metrics: counts must agree
/// across rounds (a mismatch is a failed check), timings take the median.
void add_layer_metrics(const std::vector<LayerSample>& rounds,
                       double overhead_ratio, Report& report);

// ---------------------------------------------------------------------------
// Workloads are made of parts; one round runs every part once, in order.

/// What one round measured. Each part adds its share; the end-to-end
/// metrics are medians over rounds of these round totals.
struct Sample {
  double wall_s = 0.0;        ///< timed phases of every part
  double steps = 0.0;         ///< work behind steps_per_s ...
  double step_s = 0.0;        ///< ... and the time it took
  double episodes = 0.0;      ///< work behind episodes_per_s ...
  double episode_s = 0.0;     ///< ... and the time it took
  double generation_s = 0.0;  ///< the part's generation, summed over parts
  std::vector<double> ticks_s;
  LayerSample layers;  ///< filled in traced rounds only

  /// Multiplies every end-to-end time by `factor`.
  void rescale(double factor);
};

class Part {
 public:
  virtual ~Part() = default;
  /// Builds the part's state and runs a warm-up. It runs kSetups times; the
  /// rounds use the last set-up's state.
  virtual void setup() = 0;
  /// One measured round. Output checks go to `report`, outside the timed
  /// phases.
  virtual void round(bool traced, Sample& sample, Report& report) = 0;
  /// Checks after the last round.
  virtual void finish(Report& /*report*/) {}
};

// ---------------------------------------------------------------------------
// Machine-speed correction. The host's speed drifts by tens of percent over
// minutes, on every vCPU at once (README.md, "What the machine does to the
// figures"). Before and after each set-up and each round, the benchmark
// times a fixed arithmetic loop that runs no netadv code, and rescales that
// set-up's or round's times to a reference machine on which the loop takes
// kReferenceS.

/// How long the reference loop takes on the reference machine, by
/// definition (about what it takes on the 4-core VM the README describes).
inline constexpr double kReferenceS = 0.1;

/// Wall time of one pass of the reference loop, now. Call it while no pool
/// has work, so that it competes with nothing of the benchmark's own.
double reference_loop_s();

/// How many times a workload sets up; setup_s is the median.
inline constexpr std::size_t kSetups = 5;

/// Every thread pool has two threads, never default_thread_count().
inline constexpr std::size_t kThreads = 2;

/// Sets every part up kSetups times, then runs rounds until
/// `options.seconds` have passed (at least four; with --trace 1 they
/// alternate untraced / traced, so drift falls on both halves), runs the
/// final checks and fills the report with the end-to-end metrics (--trace
/// 0) or the per-layer metrics (--trace 1). End-to-end times are corrected
/// to the reference machine; per-layer times are as measured.
Report run_workload(const Options& options, Tracer& tracer,
                    const std::vector<std::unique_ptr<Part>>& parts);

std::unique_ptr<Part> make_abr_attack(const Options& options, Tracer& tracer);
std::unique_ptr<Part> make_cc_attack(const Options& options, Tracer& tracer);
std::unique_ptr<Part> make_serve(const Options& options, Tracer& tracer);
std::unique_ptr<Part> make_cotrain(const Options& options, Tracer& tracer);

}  // namespace perfbench
