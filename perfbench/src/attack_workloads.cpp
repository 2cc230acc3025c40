// The two attack parts: one round = train a fresh PPO adversary for a
// fixed step budget, record a stochastic corpus with it, and replay the
// corpus against two protocols — the paper's attack loop, end to end.
//
// Every round repeats the same work (same seeds), so the median of the
// rounds is a steady throughput, and every count in a traced round must
// repeat exactly.
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "probes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace netadv;

/// Times the train call and each update (the interval between callbacks).
struct TrainProbe {
  TrainProbe(Tracer& t, Tracer::Id train_span, Clock::time_point start)
      : tracer(t), span(train_span), last(start) {}
  Tracer& tracer;
  Tracer::Id span = 0;
  Clock::time_point last;
  std::vector<double> ticks_s;
  std::size_t updates = 0;
  std::size_t steps = 0;

  rl::TrainCallback callback() {
    return [this](const rl::UpdateInfo& info) {
      const Clock::time_point now = Clock::now();
      tracer.add("update", span, last, now);
      ticks_s.push_back(seconds_between(last, now));
      last = now;
      ++updates;
      steps = info.total_steps_done;
    };
  }
};

bool finite_in(double v, double lo, double hi) {
  return std::isfinite(v) && v >= lo && v <= hi;
}

bool same_trace(const trace::Trace& a, const trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const trace::Segment& x = a[i];
    const trace::Segment& y = b[i];
    if (x.duration_s != y.duration_s || x.bandwidth_mbps != y.bandwidth_mbps ||
        x.latency_ms != y.latency_ms || x.loss_rate != y.loss_rate) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// abr-attack (Section 3). Chosen because the env is the heavy part: in the
// probe behind this benchmark the target's Q^H plan search took 48% of
// adversary-training time (~106 us per decision), the env's own work 6% and
// the PPO learner 46%. Protocol and env speed-ups show here; serve-side
// batching does not.

class AbrAttack final : public Part {
 public:
  AbrAttack(const Options& options, Tracer& tracer) : tracer_(tracer) {
    util::Rng seeds{options.seed};
    agent_seed_ = seeds();
    record_seed_ = seeds();
  }

  // Set-up: the video manifest, the pool, and a one-update warm-up round
  // (agent construction, first-touch of every code path and allocation).
  void setup() override {
    pool_.reset();
    pool_.emplace(kThreads);
    abr::VideoManifest::Params mp;
    mp.size_variation = 0.0;
    manifest_.emplace(mp);
    Sample ignored;
    attack(false, kWarmupSteps, kWarmupEpisodes, ignored, nullptr);
  }

  void round(bool traced, Sample& sample, Report& report) override {
    attack(traced, kTrainSteps, kEpisodes, sample, &report);
  }

  // A 1-thread re-run of a small slice reproduces the 2-thread corpus.
  void finish(Report& report) override {
    const std::vector<trace::Trace> slice = core::record_abr_traces(
        *last_agent_, *manifest_,
        [] { return std::make_unique<abr::RobustMpc>(); }, params_,
        kSliceEpisodes, record_seed_, /*deterministic=*/false, nullptr);
    bool identical = slice.size() == kSliceEpisodes;
    for (std::size_t i = 0; identical && i < slice.size(); ++i) {
      identical = same_trace(slice[i], last_traces_.at(i));
    }
    report.check(identical);
  }

 private:
  static constexpr std::size_t kTrainSteps = 4 * 2048;  // four PPO updates
  static constexpr std::size_t kEpisodes = 64;  // recorded, then replayed x2
  static constexpr std::size_t kWarmupSteps = 2048;
  static constexpr std::size_t kWarmupEpisodes = 2;
  static constexpr std::size_t kSliceEpisodes = 2;  // 1-thread identity re-run

  /// One round; `report` is null for the warm-up, which is not measured.
  void attack(bool traced, std::size_t steps, std::size_t episodes,
              Sample& sample, Report* report) {
    Tally train_decide;
    Tally replay_decide;
    const auto timed = [&](std::unique_ptr<abr::AbrProtocol> p, Tally& t)
        -> std::unique_ptr<abr::AbrProtocol> {
      if (!traced) return p;
      return std::make_unique<TimedProtocol>(std::move(p), t);
    };
    const abr::ProtocolFactory make_mpc = [&] {
      return timed(std::make_unique<abr::RobustMpc>(), replay_decide);
    };
    const abr::ProtocolFactory make_bb = [&] {
      return timed(std::make_unique<abr::BufferBased>(), replay_decide);
    };

    const std::unique_ptr<abr::AbrProtocol> target =
        timed(std::make_unique<abr::RobustMpc>(), train_decide);
    core::AbrAdversaryEnv env{*manifest_, *target, params_};
    TimedEnv timed_env{env};
    rl::Env& train_env = traced ? static_cast<rl::Env&>(timed_env) : env;

    const Scope round_span{tracer_, "abr-attack.round", 0};
    const Clock::time_point t0 = Clock::now();
    TrainProbe probe{tracer_, tracer_.begin("core.train_adversary",
                                            round_span.id()), t0};
    rl::PpoAgent agent = core::train_adversary(
        train_env, config_, steps, agent_seed_, probe.callback(), &*pool_);
    tracer_.end(probe.span);
    const Clock::time_point t1 = Clock::now();
    std::vector<trace::Trace> traces;
    {
      const Scope span{tracer_, "core.record_abr_traces", round_span.id()};
      traces = core::record_abr_traces(agent, *manifest_, make_mpc, params_,
                                       episodes, record_seed_,
                                       /*deterministic=*/false, &*pool_);
    }
    const Clock::time_point t2 = Clock::now();
    std::vector<double> qoe_mpc;
    std::vector<double> qoe_bb;
    {
      const Scope span{tracer_, "abr.qoe_per_trace", round_span.id()};
      qoe_mpc = abr::qoe_per_trace(make_mpc, *manifest_, traces, {}, &*pool_);
      qoe_bb = abr::qoe_per_trace(make_bb, *manifest_, traces, {}, &*pool_);
    }
    const Clock::time_point t3 = Clock::now();
    if (report == nullptr) return;

    // Output checks, outside the timed phases.
    report->check(probe.steps >= steps && traces.size() == episodes);
    for (std::size_t i = 0; i < traces.size(); ++i) {
      bool ok = traces[i].size() == manifest_->num_chunks();
      for (const trace::Segment& s : traces[i].segments()) {
        ok = ok && finite_in(s.bandwidth_mbps, params_.bandwidth_min_mbps,
                             params_.bandwidth_max_mbps);
      }
      const double optimal =
          abr::optimal_playback(*manifest_, traces[i]).total_qoe;
      ok = ok && std::isfinite(qoe_mpc.at(i)) && std::isfinite(qoe_bb.at(i)) &&
           std::isfinite(optimal - qoe_mpc[i]) &&
           std::isfinite(optimal - qoe_bb[i]);
      report->check(ok);
    }

    const double train_s = seconds_between(t0, t1);
    sample.wall_s += seconds_between(t0, t3);
    sample.steps += static_cast<double>(probe.steps);
    sample.step_s += train_s;
    sample.episodes += static_cast<double>(3 * episodes);
    sample.episode_s += seconds_between(t1, t3);
    sample.generation_s += seconds_between(t0, t3);
    sample.ticks_s.insert(sample.ticks_s.end(), probe.ticks_s.begin(),
                          probe.ticks_s.end());
    if (traced) {
      const double env_s = timed_env.steps.seconds();
      const double decisions = static_cast<double>(train_decide.count.load() +
                                                   replay_decide.count.load());
      const double decide_s = train_decide.seconds() + replay_decide.seconds();
      add_layers(sample.layers, {
          {"rl.updates", static_cast<double>(probe.updates)},
          {"rl.learner_s", train_s - env_s - timed_env.resets.seconds()},
          {"core.env_steps", static_cast<double>(timed_env.steps.count.load())},
          {"core.env_step_s", env_s - train_decide.seconds()},
          {"core.record_s", seconds_between(t1, t2)},
          {"core.record_episodes", static_cast<double>(episodes)},
          {"core.replay_s", seconds_between(t2, t3)},
          {"core.replay_traces", static_cast<double>(2 * traces.size())},
          {"abr.decisions", decisions},
          {"abr.decide_s", decide_s},
          {"abr.decide_us", 1e6 * decide_s / decisions},
      });
    }
    last_agent_.emplace(std::move(agent));
    last_traces_ = std::move(traces);
  }

  Tracer& tracer_;
  std::uint64_t agent_seed_ = 0;
  std::uint64_t record_seed_ = 0;
  const rl::PpoConfig config_ = core::abr_adversary_ppo_config();
  const core::AbrAdversaryEnv::Params params_{};
  std::optional<util::ThreadPool> pool_;
  std::optional<abr::VideoManifest> manifest_;
  std::optional<rl::PpoAgent> last_agent_;
  std::vector<trace::Trace> last_traces_;
};

// ---------------------------------------------------------------------------
// cc-attack (Section 4). Chosen because the learner is the heavy part: PPO
// updates on the {4}-hidden net took ~70% of adversary-training time and the
// per-packet link simulation ~23%, at ~17 sender callbacks per step.
// Learner overhead and per-packet costs show here; gemm FLOPs do not.

class CcAttack final : public Part {
 public:
  // Four independently seeded adversaries per round: the cost of a CC
  // episode grows with the bandwidth the trained policy picks, so one
  // policy per run would make the figures depend on the seed's luck.
  CcAttack(const Options& options, Tracer& tracer) : tracer_(tracer) {
    util::Rng seeds{options.seed};
    for (std::size_t a = 0; a < kAdversaries; ++a) {
      agent_seeds_.push_back(seeds());
      record_seeds_.push_back(seeds());
    }
    replay_seed_ = seeds();
  }

  // Set-up: the pool and a one-update-per-adversary warm-up round (agent
  // construction, first-touch of every code path and allocation).
  void setup() override {
    pool_.reset();
    pool_.emplace(kThreads);
    Sample ignored;
    attack(false, kWarmupSteps, kWarmupEpisodes, ignored, nullptr);
  }

  void round(bool traced, Sample& sample, Report& report) override {
    attack(traced, kTrainSteps, kEpisodes, sample, &report);
  }

 private:
  static constexpr std::size_t kAdversaries = 4;
  static constexpr std::size_t kTrainSteps = 4 * 2048;  // four updates each
  static constexpr std::size_t kEpisodes = 8;  // each; then replayed x2
  static constexpr std::size_t kWarmupSteps = 2048;
  static constexpr std::size_t kWarmupEpisodes = 2;

  /// One round; `report` is null for the warm-up, which is not measured.
  void attack(bool traced, std::size_t steps, std::size_t episodes,
              Sample& sample, Report* report) {
    TimedSender::Tallies train_tallies;
    TimedSender::Tallies replay_tallies;
    const auto timed = [&](std::unique_ptr<cc::CcSender> s,
                           TimedSender::Tallies& t)
        -> std::unique_ptr<cc::CcSender> {
      if (!traced) return s;
      return std::make_unique<TimedSender>(std::move(s), t);
    };
    const core::SenderFactory make_bbr = [&] {
      return timed(std::make_unique<cc::BbrSender>(), replay_tallies);
    };
    const core::SenderFactory make_cubic = [&] {
      return timed(std::make_unique<cc::CubicSender>(), replay_tallies);
    };

    core::CcAdversaryEnv env{params_, [&] {
      return timed(std::make_unique<cc::BbrSender>(), train_tallies);
    }};
    TimedEnv timed_env{env};
    rl::Env& train_env = traced ? static_cast<rl::Env&>(timed_env) : env;

    const Scope round_span{tracer_, "cc-attack.round", 0};
    double train_s = 0.0;
    double record_s = 0.0;
    std::size_t steps_done = 0;
    std::size_t updates = 0;
    std::vector<double> ticks_s;
    std::vector<core::CcEpisodeRecord> records;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t a = 0; a < kAdversaries; ++a) {
      const Clock::time_point start = Clock::now();
      TrainProbe probe{tracer_, tracer_.begin("core.train_adversary",
                                              round_span.id()), start};
      rl::PpoAgent agent =
          core::train_adversary(train_env, config_, steps, agent_seeds_[a],
                                probe.callback(), &*pool_);
      tracer_.end(probe.span);
      const Clock::time_point trained = Clock::now();
      std::vector<core::CcEpisodeRecord> recorded;
      {
        const Scope span{tracer_, "core.record_cc_episodes", round_span.id()};
        recorded = core::record_cc_episodes(agent, params_, make_bbr, episodes,
                                            record_seeds_[a],
                                            /*deterministic=*/false, &*pool_);
      }
      record_s += seconds_between(trained, Clock::now());
      train_s += seconds_between(start, trained);
      steps_done += probe.steps;
      updates += probe.updates;
      ticks_s.insert(ticks_s.end(), probe.ticks_s.begin(), probe.ticks_s.end());
      for (core::CcEpisodeRecord& r : recorded) records.push_back(std::move(r));
    }
    const Clock::time_point t2 = Clock::now();
    std::vector<trace::Trace> traces;
    for (const core::CcEpisodeRecord& r : records) traces.push_back(r.trace);
    std::vector<core::CcReplayResult> on_bbr;
    std::vector<core::CcReplayResult> on_cubic;
    {
      const Scope span{tracer_, "core.replay_cc_traces", round_span.id()};
      on_bbr = core::replay_cc_traces(make_bbr, traces, params_.link,
                                      replay_seed_, &*pool_);
      on_cubic = core::replay_cc_traces(make_cubic, traces, params_.link,
                                        replay_seed_, &*pool_);
    }
    const Clock::time_point t3 = Clock::now();
    if (report == nullptr) return;

    // Output checks, outside the timed phases.
    report->check(steps_done >= kAdversaries * steps &&
                  records.size() == kAdversaries * episodes);
    for (std::size_t i = 0; i < records.size(); ++i) {
      bool ok = finite_in(records[i].mean_utilization, 0.0, 1.0) &&
                !records[i].utilization.empty();
      for (const double u : records[i].utilization) {
        ok = ok && finite_in(u, 0.0, 1.0);
      }
      ok = ok && finite_in(on_bbr.at(i).mean_utilization, 0.0, 1.0) &&
           finite_in(on_cubic.at(i).mean_utilization, 0.0, 1.0);
      report->check(ok);
    }

    const double replay_s = seconds_between(t2, t3);
    sample.wall_s += seconds_between(t0, t3);
    sample.steps += static_cast<double>(steps_done);
    sample.step_s += train_s;
    sample.episodes += static_cast<double>(3 * records.size());
    sample.episode_s += record_s + replay_s;
    sample.generation_s += seconds_between(t0, t3);
    sample.ticks_s.insert(sample.ticks_s.end(), ticks_s.begin(), ticks_s.end());
    if (traced) {
      const double env_s = timed_env.steps.seconds();
      const double env_self_s = env_s - train_tallies.seconds();
      const auto train_packets = static_cast<double>(
          train_tallies.acks.count.load() + train_tallies.losses.count.load());
      const auto acks = static_cast<double>(train_tallies.acks.count.load() +
                                            replay_tallies.acks.count.load());
      const auto losses =
          static_cast<double>(train_tallies.losses.count.load() +
                              replay_tallies.losses.count.load());
      add_layers(sample.layers, {
          {"rl.updates", static_cast<double>(updates)},
          {"rl.learner_s", train_s - env_s - timed_env.resets.seconds()},
          {"core.env_steps", static_cast<double>(timed_env.steps.count.load())},
          {"core.env_step_s", env_self_s},
          {"core.record_s", record_s},
          {"core.record_episodes", static_cast<double>(records.size())},
          {"core.replay_s", replay_s},
          {"core.replay_traces", static_cast<double>(2 * traces.size())},
          {"cc.acks", acks},
          {"cc.losses", losses},
          {"cc.loss_ratio", losses / (acks + losses)},
          {"cc.sender_s", train_tallies.seconds() + replay_tallies.seconds()},
          {"cc.link_ns_per_packet", 1e9 * env_self_s / train_packets},
      });
    }
  }

  Tracer& tracer_;
  std::vector<std::uint64_t> agent_seeds_;
  std::vector<std::uint64_t> record_seeds_;
  std::uint64_t replay_seed_ = 0;
  const rl::PpoConfig config_ = core::cc_adversary_ppo_config();
  const core::CcAdversaryEnv::Params params_{};  // Table 1 link and ranges
  std::optional<util::ThreadPool> pool_;
};

}  // namespace

std::unique_ptr<Part> make_abr_attack(const Options& options, Tracer& tracer) {
  return std::make_unique<AbrAttack>(options, tracer);
}

std::unique_ptr<Part> make_cc_attack(const Options& options, Tracer& tracer) {
  return std::make_unique<CcAttack>(options, tracer);
}

}  // namespace perfbench
