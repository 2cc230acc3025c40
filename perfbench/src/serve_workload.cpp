// The serve part: serve::SessionEngine serving concurrent Pensieve sessions
// through PensieveBatchPolicy over a 64-trace FCC-like corpus.
//
// Chosen because it is the only part that runs inference without training: in the probe behind this benchmark one batched forward per tick
// took ~90% of wall time (2000 sessions: 0.335 s of 0.374 s over 48 ticks).
// Batched-forward (gemm, tanh) and tick-sharding work shows here and
// nowhere else. One round is one engine run.
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "abr/pensieve.hpp"
#include "abr/qoe_model.hpp"
#include "probes.hpp"
#include "serve/batch_policy.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace netadv;

class Serve final : public Part {
 public:
  Serve(const Options& options, Tracer& tracer) : tracer_(tracer) {
    util::Rng seeds{options.seed};
    trace_seed_ = seeds();
    agent_seed_ = seeds();
  }

  // Set-up: trace generation, agent construction, engine construction and
  // a warm-up run at full load.
  void setup() override {
    pool_.reset();
    pool_.emplace(kThreads);
    abr::VideoManifest::Params mp;
    mp.size_variation = 0.0;
    manifest_.emplace(mp);
    util::Rng trace_rng{trace_seed_};
    engine_.emplace(*manifest_, trace::FccLikeGenerator{{}}.generate_many(
                                    kTraces, trace_rng));
    agent_.emplace(abr::make_pensieve_agent(*manifest_, agent_seed_));
    policy_.emplace(*agent_);
    engine_->run(*policy_, qoe_, kSessions, &*pool_);
  }

  void round(bool traced, Sample& sample, Report& report) override {
    TickPolicy ticks{*policy_};
    serve::ServeStats stats;
    const Tracer::Id run_span = tracer_.begin("serve.engine_run", 0);
    const Clock::time_point t0 = Clock::now();
    std::vector<serve::SessionSummary> summaries =
        engine_->run(ticks, qoe_, kSessions, &*pool_, &stats);
    const Clock::time_point t1 = Clock::now();
    tracer_.end(run_span);
    ticks.add_tick_spans(tracer_, run_span, t1);
    const double wall_s = seconds_between(t0, t1);

    // Output checks, outside the timed phase: every session downloads
    // every chunk and ends with a finite QoE.
    report.check(summaries.size() == kSessions &&
                 stats.decisions == ticks.decisions());
    for (const serve::SessionSummary& s : summaries) {
      report.check(s.chunks == manifest_->num_chunks() &&
                   std::isfinite(s.qoe) && std::isfinite(s.qoe_lin) &&
                   std::isfinite(s.rebuffer_s));
    }

    // A session is one playback episode; a session step is one decision
    // plus one chunk download.
    sample.wall_s += wall_s;
    sample.steps += static_cast<double>(stats.decisions);
    sample.step_s += wall_s;
    sample.episodes += static_cast<double>(kSessions);
    sample.episode_s += wall_s;
    const std::vector<double> run_ticks = ticks.tick_seconds(t1);
    sample.ticks_s.insert(sample.ticks_s.end(), run_ticks.begin(),
                          run_ticks.end());
    if (traced) {
      const double decide_s = ticks.decide_seconds();
      const auto n_ticks = static_cast<double>(ticks.ticks());
      add_layers(sample.layers, {
          {"serve.ticks", n_ticks},
          {"serve.batch_mean",
           static_cast<double>(ticks.decisions()) / n_ticks},
          {"serve.decide_s", decide_s},
          {"serve.decide_share", decide_s / wall_s},
          {"serve.tick_other_ms", 1e3 * (wall_s - decide_s) / n_ticks},
      });
    }
    last_summaries_ = std::move(summaries);
  }

  // On a subset, the batched summaries equal the per-session summaries:
  // session i streams trace i mod T either way, so the first sessions of a
  // per-session run must reproduce the batched run's first summaries.
  void finish(Report& report) override {
    const rl::PpoAgent& served = *agent_;
    const std::vector<serve::SessionSummary> per_session = engine_->run(
        [&served]() -> std::unique_ptr<abr::AbrProtocol> {
          return std::make_unique<abr::OwnedPensievePolicy>(served);
        },
        qoe_, kIdentitySessions, &*pool_);
    bool identical = per_session.size() == kIdentitySessions;
    for (std::size_t i = 0; identical && i < per_session.size(); ++i) {
      identical = per_session[i] == last_summaries_.at(i);
    }
    report.check(identical);
  }

 private:
  // 2048 sessions: with 1024, per-tick pool dispatch was a larger share of
  // each ~3 ms tick and made the tick times swing more between runs.
  static constexpr std::size_t kSessions = 2048;
  static constexpr std::size_t kTraces = 64;
  static constexpr std::size_t kIdentitySessions = 64;  // per-session check

  Tracer& tracer_;
  std::uint64_t trace_seed_ = 0;
  std::uint64_t agent_seed_ = 0;
  std::optional<util::ThreadPool> pool_;
  std::optional<abr::VideoManifest> manifest_;
  std::optional<serve::SessionEngine> engine_;
  std::optional<rl::PpoAgent> agent_;
  std::optional<serve::PensieveBatchPolicy> policy_;
  abr::LinQoe qoe_;
  std::vector<serve::SessionSummary> last_summaries_;
};

}  // namespace

std::unique_ptr<Part> make_serve(const Options& options, Tracer& tracer) {
  return std::make_unique<Serve>(options, tracer);
}

}  // namespace perfbench
