// Ablation of the online-vs-trace-based adversary choice (Section 2.1) and
// of the online adversary's window parameters.
//
// The paper argues an online adversary (observing the protocol every chunk)
// collects training signal faster and finds targeted weaknesses a blind
// trace generator cannot. We compare, at matched interaction budgets,
// against BB:
//  * online (full observations, the paper's design),
//  * time-only (an open-loop, time-indexed RL policy),
//  * a true trace-based adversary (CEM search over whole traces, each
//    candidate costing one full playback — Section 2.1's "each trace
//    constitutes only a single data point"),
// and sweep the r_opt window (1 vs 4 changes) to show why "the last 4
// network changes" matters.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "abr/bb.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "common/bench_common.hpp"
#include "core/abr_adversary.hpp"
#include "core/cem_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "util/log.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

double mean_regret_of(core::AbrAdversaryEnv::Params params, std::uint64_t seed,
                      std::size_t steps, const abr::VideoManifest& m) {
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb, params};
  rl::PpoAgent adversary =
      core::train_adversary(env, core::abr_adversary_ppo_config(), steps, seed);
  util::Rng rng{seed + 1};
  const auto traces = core::record_abr_traces(adversary, env, 20, rng);
  double regret = 0.0;
  for (const auto& t : traces) {
    abr::BufferBased target;
    regret += abr::optimal_playback(m, t).total_qoe -
              abr::run_playback(target, m, t).total_qoe;
  }
  return regret / static_cast<double>(traces.size());
}

void run_ablation() {
  std::printf("=== Ablation: online vs trace-based adversary; r_opt window "
              "===\n");
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  const std::size_t steps = util::scaled_steps(80000, 4096);
  util::log_info("ablation: 4 adversary trainings of %zu steps each", steps);

  struct Config {
    const char* label;
    core::AbrAdversaryEnv::Params params;
  };
  std::vector<Config> configs;
  {
    Config c{"online, window=4 (paper)", {}};
    configs.push_back(c);
  }
  {
    Config c{"time-only (trace-based)", {}};
    c.params.obs_mode = core::AbrAdversaryEnv::ObsMode::kTimeOnly;
    configs.push_back(c);
  }
  {
    Config c{"online, window=1", {}};
    c.params.opt_window = 1;
    configs.push_back(c);
  }
  {
    Config c{"online, history=3", {}};
    c.params.history = 3;
    configs.push_back(c);
  }

  // True trace-based comparator: CEM whose playback budget matches the RL
  // adversaries' step budget (one playback = num_chunks steps).
  const std::size_t playback_budget = steps / m.num_chunks();
  core::CemTraceAdversary::Params cem_params;
  cem_params.population = 32;
  cem_params.iterations = std::max<std::size_t>(playback_budget / 32, 2);
  abr::BufferBased cem_target;
  util::Rng cem_rng{1099};
  const auto cem_result =
      core::CemTraceAdversary{cem_params}.search(m, cem_target, cem_rng);

  const std::vector<int> widths{28, 14};
  print_rule(widths);
  print_row({"adversary", "mean regret"}, widths);
  print_rule(widths);
  print_row({"trace-based (CEM)", fmt(cem_result.best_regret, 2)}, widths);
  std::vector<std::vector<double>> csv_rows;
  std::vector<double> regrets;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const double regret =
        mean_regret_of(configs[i].params, 1000 + i, steps, m);
    regrets.push_back(regret);
    print_row({configs[i].label, fmt(regret, 2)}, widths);
    csv_rows.push_back({static_cast<double>(i), regret});
  }
  print_rule(widths);
  write_csv("ablation_online.csv", {"config_index", "mean_regret"}, csv_rows);

  std::printf("\nshape check: the paper's online adversary at least matches "
              "the trace-based stand-in: %s (%.2f vs %.2f)\n",
              regrets[0] >= regrets[1] * 0.9 ? "YES" : "NO", regrets[0],
              regrets[1]);
}

void BM_AblationOnline(benchmark::State& state) {
  for (auto _ : state) run_ablation();
}
BENCHMARK(BM_AblationOnline)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
