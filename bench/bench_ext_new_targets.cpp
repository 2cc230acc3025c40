// Extension experiments beyond the paper's evaluation, exercising the
// Section-5 discussion items the paper leaves open:
//  (1) new targets — the framework is protocol-agnostic, so attack Copa
//      (the other modern CC protocol Section 4 names) and BOLA (a stronger
//      buffer-based ABR than BB);
//  (2) different adversarial goals — the rebuffering-seeking ABR adversary
//      and the congestion-seeking CC adversary.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "abr/bb.hpp"
#include "abr/bola.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "common/bench_common.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/recorder.hpp"
#include "core/registry.hpp"
#include "core/trainer.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

void attack_copa(std::size_t steps) {
  std::printf("\n-- adversary vs Copa (underutilization goal) --\n");
  core::CcAdversaryEnv::Params p;
  core::CcAdversaryEnv env{p, core::cc_senders().factory("copa")};
  rl::PpoAgent adversary =
      core::train_adversary(env, core::cc_adversary_ppo_config(), steps, 1101);
  util::Rng rng{1102};
  const core::CcEpisodeRecord record =
      core::record_cc_episode(adversary, env, rng, /*deterministic=*/false);
  std::printf("Copa mean utilization under attack: %.1f%% (mean loss "
              "injected %.2f%%)\n",
              100.0 * record.mean_utilization,
              100.0 * util::mean(record.loss_rate));
  write_csv("ext_copa_attack.csv",
            {"epoch", "bandwidth_mbps", "throughput_mbps", "utilization"},
            [&] {
              std::vector<std::vector<double>> rows;
              for (std::size_t i = 0; i < record.bandwidth_mbps.size(); ++i) {
                rows.push_back({static_cast<double>(i),
                                record.bandwidth_mbps[i],
                                record.throughput_mbps[i],
                                record.utilization[i]});
              }
              return rows;
            }());
}

void attack_vivace(std::size_t steps) {
  std::printf("\n-- adversary vs PCC Vivace (underutilization goal) --\n");
  core::CcAdversaryEnv::Params p;
  core::CcAdversaryEnv env{p, core::cc_senders().factory("vivace")};
  rl::PpoAgent adversary =
      core::train_adversary(env, core::cc_adversary_ppo_config(), steps, 1109);
  util::Rng rng{1110};
  const core::CcEpisodeRecord record =
      core::record_cc_episode(adversary, env, rng, /*deterministic=*/false);
  std::printf("Vivace mean utilization under attack: %.1f%% (mean loss "
              "injected %.2f%%)\n",
              100.0 * record.mean_utilization,
              100.0 * util::mean(record.loss_rate));
}

void attack_bola(std::size_t steps) {
  std::printf("\n-- adversary vs BOLA (QoE-regret goal, Equation 1) --\n");
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::Bola bola;
  core::AbrAdversaryEnv env{m, bola};
  rl::PpoAgent adversary =
      core::train_adversary(env, core::abr_adversary_ppo_config(), steps, 1103);
  util::Rng rng{1104};
  const auto traces = core::record_abr_traces(adversary, env, 20, rng);
  double regret = 0.0;
  for (const auto& t : traces) {
    abr::Bola target;
    regret += abr::optimal_playback(m, t).total_qoe -
              abr::run_playback(target, m, t).total_qoe;
  }
  regret /= static_cast<double>(traces.size());
  std::printf("mean per-video regret opened against BOLA: %.2f QoE\n", regret);
}

void rebuffering_goal(std::size_t steps) {
  std::printf("\n-- ABR adversary with the rebuffering goal (Section 5) --\n");
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::BufferBased bb;
  core::AbrAdversaryEnv::Params p;
  p.goal = core::AbrAdversaryEnv::Goal::kRebuffering;
  core::AbrAdversaryEnv env{m, bb, p};
  rl::PpoAgent adversary =
      core::train_adversary(env, core::abr_adversary_ppo_config(), steps, 1105);
  util::Rng rng{1106};
  const auto traces = core::record_abr_traces(adversary, env, 20, rng);
  double stall = 0.0;
  double mean_bw = 0.0;
  for (const auto& t : traces) {
    abr::BufferBased target;
    stall += abr::run_playback(target, m, t).total_rebuffer_s;
    mean_bw += t.mean_bandwidth_mbps();
  }
  std::printf("mean stall induced: %.1f s per video at mean offered "
              "bandwidth %.2f Mbps\n",
              stall / static_cast<double>(traces.size()),
              mean_bw / static_cast<double>(traces.size()));
}

void congestion_goal(std::size_t steps) {
  std::printf("\n-- CC adversary with the congestion goal (Section 5) --\n");
  core::CcAdversaryEnv::Params p;
  p.goal = core::CcAdversaryEnv::Goal::kCongestion;
  core::CcAdversaryEnv env{p};
  rl::PpoAgent adversary =
      core::train_adversary(env, core::cc_adversary_ppo_config(), steps, 1107);
  util::Rng rng{1108};
  const core::CcEpisodeRecord record =
      core::record_cc_episode(adversary, env, rng, /*deterministic=*/false);
  std::printf("mean queueing delay the adversary induces in BBR: %.1f ms "
              "(vs ~0 on a benign link)\n",
              1000.0 * util::mean(record.queue_delay_s));
}

void run_extensions() {
  std::printf("=== Extensions: new targets and adversarial goals ===\n");
  const std::size_t cc_steps = util::scaled_steps(300000, 8192);
  const std::size_t abr_steps = util::scaled_steps(80000, 4096);
  util::log_info("extensions: 4 adversary trainings (%zu cc / %zu abr steps)",
                 cc_steps, abr_steps);
  attack_copa(cc_steps);
  attack_vivace(cc_steps);
  attack_bola(abr_steps);
  rebuffering_goal(abr_steps);
  congestion_goal(cc_steps);
}

void BM_Extensions(benchmark::State& state) {
  for (auto _ : state) run_extensions();
}
BENCHMARK(BM_Extensions)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
