// Seed-variance study: RL adversary training is stochastic, and a workshop
// paper's single runs (like ours) sit somewhere in a seed distribution.
// This bench trains the ABR adversary against BB with several seeds and
// reports the spread of the damage (mean regret over recorded traces), plus
// the same for the CC adversary against BBR (mean utilization) — the
// honesty check behind EXPERIMENTS.md's seed-selection note.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "abr/bb.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "common/bench_common.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

void run_seeds() {
  std::printf("=== Seed variance of adversary training ===\n");
  const std::size_t abr_steps = util::scaled_steps(60000, 4096);
  const std::size_t cc_steps = util::scaled_steps(150000, 8192);
  const std::vector<std::uint64_t> seeds{11, 23, 47};

  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  util::ThreadPool& pool = util::ThreadPool::global();

  std::printf("\nABR adversary vs BB (%zu steps per seed, %zu threads):\n",
              abr_steps, pool.thread_count());
  const std::vector<int> widths{8, 16};
  print_rule(widths);
  print_row({"seed", "mean regret"}, widths);
  print_rule(widths);
  util::RunningStat abr_spread;
  std::vector<std::vector<double>> csv_rows;

  // The per-seed runs are independent experiments: train them concurrently
  // (one env + seed per job, results in seed order at any thread count).
  std::vector<std::unique_ptr<abr::BufferBased>> abr_targets;
  std::vector<std::unique_ptr<core::AbrAdversaryEnv>> abr_envs;
  std::vector<core::AdversaryJob> abr_jobs;
  for (std::uint64_t seed : seeds) {
    abr_targets.push_back(std::make_unique<abr::BufferBased>());
    abr_envs.push_back(
        std::make_unique<core::AbrAdversaryEnv>(m, *abr_targets.back()));
    abr_jobs.push_back({abr_envs.back().get(),
                        core::abr_adversary_ppo_config(), abr_steps, seed});
  }
  const std::vector<rl::PpoAgent> abr_adversaries =
      core::train_adversaries(abr_jobs, &pool);

  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const std::uint64_t seed = seeds[s];
    const auto traces = core::record_abr_traces(
        abr_adversaries[s], m,
        []() -> std::unique_ptr<abr::AbrProtocol> {
          return std::make_unique<abr::BufferBased>();
        },
        core::AbrAdversaryEnv::Params{}, 15, seed + 1,
        /*deterministic=*/false, &pool);
    double regret = 0.0;
    for (const auto& t : traces) {
      abr::BufferBased target;
      regret += abr::optimal_playback(m, t).total_qoe -
                abr::run_playback(target, m, t).total_qoe;
    }
    regret /= static_cast<double>(traces.size());
    abr_spread.add(regret);
    print_row({std::to_string(seed), fmt(regret, 1)}, widths);
    csv_rows.push_back({static_cast<double>(seed), regret, 0.0});
  }
  print_rule(widths);
  std::printf("spread: mean %.1f, min %.1f, max %.1f (max/min %.2fx)\n",
              abr_spread.mean(), abr_spread.min(), abr_spread.max(),
              abr_spread.max() / std::max(abr_spread.min(), 1e-9));

  std::printf("\nCC adversary vs BBR (%zu pairs per seed):\n", cc_steps);
  print_rule(widths);
  print_row({"seed", "mean util"}, widths);
  print_rule(widths);
  util::RunningStat cc_spread;

  std::vector<std::unique_ptr<core::CcAdversaryEnv>> cc_envs;
  std::vector<core::AdversaryJob> cc_jobs;
  for (std::uint64_t seed : seeds) {
    cc_envs.push_back(std::make_unique<core::CcAdversaryEnv>());
    cc_jobs.push_back({cc_envs.back().get(), core::cc_adversary_ppo_config(),
                       cc_steps, seed});
  }
  const std::vector<rl::PpoAgent> cc_adversaries =
      core::train_adversaries(cc_jobs, &pool);

  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const std::uint64_t seed = seeds[s];
    const auto records = core::record_cc_episodes(
        cc_adversaries[s], core::CcAdversaryEnv::Params{}, nullptr, 1,
        seed + 1, /*deterministic=*/false, &pool);
    const core::CcEpisodeRecord& record = records.front();
    cc_spread.add(record.mean_utilization);
    print_row({std::to_string(seed), fmt(record.mean_utilization)}, widths);
    csv_rows.push_back({static_cast<double>(seed), 0.0,
                        record.mean_utilization});
  }
  print_rule(widths);
  std::printf("spread: mean %.3f, min %.3f, max %.3f\n", cc_spread.mean(),
              cc_spread.min(), cc_spread.max());
  write_csv("ablation_seeds.csv", {"seed", "abr_regret", "cc_utilization"},
            csv_rows);

  std::printf("\nshape check: every seed's adversary beats doing nothing "
              "(regret > 0, util < 1): %s\n",
              abr_spread.min() > 0.0 && cc_spread.max() < 1.0 ? "YES" : "NO");
}

void BM_Seeds(benchmark::State& state) {
  for (auto _ : state) run_seeds();
}
BENCHMARK(BM_Seeds)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
