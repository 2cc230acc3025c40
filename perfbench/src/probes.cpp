#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double reference_loop_s() {
  // A dependent chain of multiply-adds over 1 MiB, read in a scattered
  // order: it needs the core and its L1/L2 caches, as the workloads do.
  constexpr std::size_t kWords = std::size_t{1} << 17;
  constexpr int kPasses = 240;
  static const std::vector<double> buffer = [] {
    std::vector<double> b(kWords);
    for (std::size_t i = 0; i < kWords; ++i) b[i] = 1e-6 * double(i % 977);
    return b;
  }();
  const Clock::time_point start = Clock::now();
  double acc = 0.0;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < kWords; ++i) {
      acc += buffer[(i * 7919 + static_cast<std::size_t>(pass)) & (kWords - 1)] *
                 1.0000001 +
             acc * 1e-9;
    }
  }
  const double seconds = seconds_between(start, Clock::now());
  volatile double sink = acc;  // keeps the loop
  (void)sink;
  return seconds;
}

void Sample::rescale(double factor) {
  wall_s *= factor;
  step_s *= factor;
  episode_s *= factor;
  generation_s *= factor;
  for (double& t : ticks_s) t *= factor;
}

// ---------------------------------------------------------------------------

Tracer::Id Tracer::begin(const std::string& name, Id parent) {
  if (!enabled_) return 0;
  const double start_s = seconds_between(origin_, Clock::now());
  const std::lock_guard<std::mutex> lock{mutex_};
  const Id id = spans_.size() + 1;
  spans_.push_back({id, parent, name, start_s, -1.0});
  return id;
}

void Tracer::end(Id id) {
  if (id == 0) return;
  const double end_s = seconds_between(origin_, Clock::now());
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.at(id - 1).end_s = end_s;
}

void Tracer::add(const std::string& name, Id parent, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  const std::lock_guard<std::mutex> lock{mutex_};
  spans_.push_back({spans_.size() + 1, parent, name,
                    seconds_between(origin_, start),
                    seconds_between(origin_, end)});
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  return spans_.size();
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error{"cannot write spans to " + path};
  const std::lock_guard<std::mutex> lock{mutex_};
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 s.start_s, s.end_s, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------

netadv::rl::Vec TimedEnv::reset(netadv::util::Rng& rng) {
  const Clock::time_point start = Clock::now();
  netadv::rl::Vec obs = inner_.reset(rng);
  resets.add(start);
  return obs;
}

netadv::rl::StepResult TimedEnv::step(const netadv::rl::Vec& action,
                                      netadv::util::Rng& rng) {
  const Clock::time_point start = Clock::now();
  netadv::rl::StepResult result = inner_.step(action, rng);
  steps.add(start);
  return result;
}

std::size_t TimedProtocol::choose_quality(
    const netadv::abr::AbrObservation& observation) {
  const Clock::time_point start = Clock::now();
  const std::size_t quality = inner_->choose_quality(observation);
  tally_.add(start);
  return quality;
}

void TimedSender::on_ack(const netadv::cc::AckInfo& ack) {
  const Clock::time_point start = Clock::now();
  inner_->on_ack(ack);
  tallies_.acks.add(start);
}

void TimedSender::on_loss(const netadv::cc::LossInfo& loss) {
  const Clock::time_point start = Clock::now();
  inner_->on_loss(loss);
  tallies_.losses.add(start);
}

void TickPolicy::begin_serving(const netadv::abr::VideoManifest& manifest) {
  starts_.clear();
  decide_s_.clear();
  batch_sizes_.clear();
  inner_.begin_serving(manifest);
}

std::vector<std::size_t> TickPolicy::choose_batch(
    std::span<const netadv::abr::AbrObservation* const> observations) {
  const Clock::time_point start = Clock::now();
  std::vector<std::size_t> qualities = inner_.choose_batch(observations);
  starts_.push_back(start);
  decide_s_.push_back(seconds_between(start, Clock::now()));
  batch_sizes_.push_back(observations.size());
  return qualities;
}

std::vector<double> TickPolicy::tick_seconds(Clock::time_point run_end) const {
  std::vector<double> ticks;
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    const Clock::time_point end =
        i + 1 < starts_.size() ? starts_[i + 1] : run_end;
    ticks.push_back(seconds_between(starts_[i], end));
  }
  return ticks;
}

void TickPolicy::add_tick_spans(Tracer& tracer, Tracer::Id parent,
                                Clock::time_point run_end) const {
  for (std::size_t i = 0; i < starts_.size(); ++i) {
    const Clock::time_point end =
        i + 1 < starts_.size() ? starts_[i + 1] : run_end;
    tracer.add("tick", parent, starts_[i], end);
  }
}

double TickPolicy::decide_seconds() const {
  double total = 0.0;
  for (const double s : decide_s_) total += s;
  return total;
}

std::size_t TickPolicy::decisions() const {
  std::size_t total = 0;
  for (const std::size_t n : batch_sizes_) total += n;
  return total;
}

// ---------------------------------------------------------------------------

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics{
      {"rl.updates", "count", true},
      {"rl.learner_s", "s", false},
      {"rl.learner_ms_per_update", "ms", false},
      {"core.env_steps", "count", true},
      {"core.env_step_s", "s", false},
      {"core.env_us_per_step", "us", false},
      {"core.record_s", "s", false},
      {"core.record_episodes", "count", true},
      {"core.replay_s", "s", false},
      {"core.replay_traces", "count", true},
      {"abr.decisions", "count", true},
      {"abr.decide_s", "s", false},
      {"abr.decide_us", "us", false},
      {"cc.acks", "count", true},
      {"cc.losses", "count", true},
      {"cc.loss_ratio", "ratio", false},
      {"cc.sender_s", "s", false},
      {"cc.link_ns_per_packet", "ns", false},
      {"serve.ticks", "count", true},
      {"serve.batch_mean", "sessions", false},
      {"serve.decide_s", "s", false},
      {"serve.decide_share", "ratio", false},
      {"serve.tick_other_ms", "ms", false},
      {"exp.jobs", "count", true},
      {"exp.jobs_failed", "count", true},
      {"exp.pool_busy_frac", "ratio", false},
      {"exp.job_s.train-protocol", "s", false},
      {"exp.job_s.train-adversary", "s", false},
      {"exp.job_s.record-traces", "s", false},
      {"exp.job_s.eval-matrix", "s", false},
      {"exp.job_s.promote", "s", false},
      {"trace.spans", "count", true},
      {"trace.overhead_ratio", "ratio", false},
  };
  return metrics;
}

void add_layers(LayerSample& sample, const LayerSample& values) {
  for (const auto& [name, value] : values) sample[name] += value;
}

void add_layer_metrics(const std::vector<LayerSample>& rounds,
                       double overhead_ratio, Report& report) {
  for (const LayerMetric& m : layer_metrics()) {
    const std::string name = m.name;
    if (name == "trace.overhead_ratio") {
      report.metrics.push_back({name, overhead_ratio, m.unit});
      continue;
    }
    std::vector<double> values;
    for (const LayerSample& round : rounds) {
      const auto it = round.find(name);
      values.push_back(it == round.end() ? 0.0 : it->second);
    }
    if (m.count) {
      // Every traced round repeats the same work, so its counts must too.
      const bool same = std::all_of(values.begin(), values.end(),
                                    [&](double v) { return v == values[0]; });
      report.check(!values.empty() && same);
      report.metrics.push_back({name, values.empty() ? 0.0 : values[0], m.unit});
    } else {
      report.metrics.push_back({name, median(values), m.unit});
    }
  }
}

namespace {

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// The per-layer ratios that two parts of one workload both feed, from
/// the round's summed numerators and denominators.
void derive_shared_ratios(LayerSample& layers) {
  layers["rl.learner_ms_per_update"] =
      1e3 * ratio(layers["rl.learner_s"], layers["rl.updates"]);
  layers["core.env_us_per_step"] =
      1e6 * ratio(layers["core.env_step_s"], layers["core.env_steps"]);
}

/// The tick-tail percentile. It is fixed, so every run reports the same
/// percentile: about the highest with at least ten ticks beyond it in the
/// shortest runs (~15 rounds of 20 PPO updates on attack, of 48 engine
/// ticks on cotrain-serve). The note beside the result gives the tick count
/// and how many lie beyond it.
constexpr double kTailPercentile = 95;

void add_end_to_end(Report& report, double setup_s,
                    const std::vector<Sample>& samples, double reference_s) {
  std::vector<double> steps_per_s;
  std::vector<double> episodes_per_s;
  std::vector<double> generation_s;
  std::vector<double> ticks_s;
  for (const Sample& s : samples) {
    steps_per_s.push_back(ratio(s.steps, s.step_s));
    episodes_per_s.push_back(ratio(s.episodes, s.episode_s));
    generation_s.push_back(s.generation_s);
    ticks_s.insert(ticks_s.end(), s.ticks_s.begin(), s.ticks_s.end());
  }
  const double tail_s = netadv::util::percentile(ticks_s, kTailPercentile);
  const auto beyond = static_cast<std::size_t>(std::count_if(
      ticks_s.begin(), ticks_s.end(), [&](double t) { return t > tail_s; }));
  report.metrics.push_back({"setup_s", setup_s, "s"});
  report.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  report.metrics.push_back({"steps_per_s", median(steps_per_s), "1/s"});
  report.metrics.push_back({"episodes_per_s", median(episodes_per_s), "1/s"});
  report.metrics.push_back({"tick_p50_ms", 1e3 * median(ticks_s), "ms"});
  report.metrics.push_back({"tick_tail_ms", 1e3 * tail_s, "ms"});
  report.metrics.push_back({"generation_s", median(generation_s), "s"});
  char note[160];
  std::snprintf(note, sizeof note,
                "rounds=%zu tick_tail=p%g ticks=%zu beyond=%zu reference_ms=%.1f",
                samples.size(), kTailPercentile, ticks_s.size(), beyond,
                1e3 * reference_s);
  report.notes.push_back(note);
}

}  // namespace

Report run_workload(const Options& options, Tracer& tracer,
                    const std::vector<std::unique_ptr<Part>>& parts) {
  // Every set-up and every round lies between two reference loops; its
  // times are corrected by the mean of the two.
  std::vector<double> references_s{reference_loop_s()};
  const auto correction = [&references_s] {
    references_s.push_back(reference_loop_s());
    const std::size_t n = references_s.size();
    return kReferenceS / (0.5 * (references_s[n - 2] + references_s[n - 1]));
  };

  std::vector<double> setups_s;
  for (std::size_t i = 0; i < kSetups; ++i) {
    const Clock::time_point t0 = Clock::now();
    for (const std::unique_ptr<Part>& part : parts) part->setup();
    const double wall_s = seconds_between(t0, Clock::now());
    setups_s.push_back(wall_s * correction());
  }

  Report report;
  std::vector<Sample> untraced;
  std::vector<LayerSample> traced_layers;
  std::vector<double> traced_wall_s;
  constexpr std::size_t kMinRounds = 4;  // two of each with --trace 1
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0;
       k < kMinRounds || seconds_between(start, Clock::now()) < options.seconds;
       ++k) {
    const bool traced = options.trace && k % 2 == 1;
    tracer.set_enabled(traced);
    const std::size_t spans_before = tracer.size();
    Sample sample;
    for (const std::unique_ptr<Part>& part : parts) {
      part->round(traced, sample, report);
    }
    sample.rescale(correction());
    if (traced) {
      sample.layers["trace.spans"] =
          static_cast<double>(tracer.size() - spans_before);
      derive_shared_ratios(sample.layers);
      traced_layers.push_back(std::move(sample.layers));
      traced_wall_s.push_back(sample.wall_s);
    } else {
      untraced.push_back(std::move(sample));
    }
  }
  tracer.set_enabled(false);
  for (const std::unique_ptr<Part>& part : parts) part->finish(report);

  if (options.trace) {
    std::vector<double> untraced_wall_s;
    for (const Sample& s : untraced) untraced_wall_s.push_back(s.wall_s);
    add_layer_metrics(traced_layers,
                      median(traced_wall_s) / median(untraced_wall_s), report);
  } else {
    add_end_to_end(report, median(setups_s), untraced, median(references_s));
  }
  return report;
}

}  // namespace perfbench
