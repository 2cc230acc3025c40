// Figure 3 — "BB running on an adversarial trace": train the adversary
// against Buffer-Based, roll one episode, and print the per-chunk timeline
// of (BB's bitrate selection vs the offline optimum, buffer size,
// adversary's bandwidth). The paper's reading: the adversary pins BB's
// buffer inside its 10-15 s switching band, forcing constant bitrate
// oscillation, while the offline optimum would start low and ramp up.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "abr/bb.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "common/bench_common.hpp"
#include "core/abr_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv;
using namespace netadv::bench;

void run_fig3() {
  std::printf("=== Figure 3: BB on an adversarial trace ===\n");
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb};

  const std::size_t steps = util::scaled_steps(120000, 4096);
  util::log_info("fig3: training adversary vs BB (%zu steps)", steps);
  rl::PpoAgent adversary =
      core::train_adversary(env, core::abr_adversary_ppo_config(), steps, 303);

  util::Rng rng{304};
  const core::AbrEpisodeRecord record =
      core::record_abr_episode(adversary, env, rng, /*deterministic=*/false);
  const abr::OptimalPlan optimum = abr::optimal_playback(m, record.trace);

  const std::vector<int> widths{6, 8, 12, 12, 10, 10};
  print_rule(widths);
  print_row({"chunk", "time_s", "bb_kbps", "opt_kbps", "buffer_s", "bw_mbps"},
            widths);
  print_rule(widths);
  std::vector<std::vector<double>> csv_rows;
  for (std::size_t i = 0; i < record.bandwidth_mbps.size(); ++i) {
    const double t = static_cast<double>(i) * m.chunk_duration_s();
    const double opt_kbps = m.bitrate_kbps(optimum.qualities[i]);
    if (i % 4 == 0) {  // table shows every 4th chunk; CSV has all
      print_row({std::to_string(i), fmt(t, 0), fmt(record.bitrate_kbps[i], 0),
                 fmt(opt_kbps, 0), fmt(record.buffer_s[i], 1),
                 fmt(record.bandwidth_mbps[i], 2)},
                widths);
    }
    csv_rows.push_back({t, record.bitrate_kbps[i], opt_kbps,
                        record.buffer_s[i], record.bandwidth_mbps[i]});
  }
  print_rule(widths);
  write_csv("fig3_bb_timeline.csv",
            {"time_s", "bb_bitrate_kbps", "optimal_bitrate_kbps", "buffer_s",
             "bandwidth_mbps"},
            csv_rows);

  // Summary + shape checks.
  std::size_t switches = 0;
  std::size_t in_band = 0;
  for (std::size_t i = 1; i < record.bitrate_kbps.size(); ++i) {
    if (record.bitrate_kbps[i] != record.bitrate_kbps[i - 1]) ++switches;
  }
  for (double b : record.buffer_s) {
    if (b >= 8.0 && b <= 17.0) ++in_band;
  }
  std::size_t opt_switches = 0;
  for (std::size_t i = 1; i < optimum.qualities.size(); ++i) {
    if (optimum.qualities[i] != optimum.qualities[i - 1]) ++opt_switches;
  }
  const double bb_qoe = record.total_qoe;
  std::printf("\nBB QoE %.2f vs offline optimum %.2f (gap %.2f)\n", bb_qoe,
              optimum.total_qoe, optimum.total_qoe - bb_qoe);
  std::printf("BB switched bitrate %zu times; optimum switched %zu times\n",
              switches, opt_switches);
  std::printf("chunks with buffer near BB's 10-15 s switching band: %zu/%zu\n",
              in_band, record.buffer_s.size());
  std::printf("shape check: BB oscillates more than the optimum: %s\n",
              switches > opt_switches ? "YES" : "NO");
}

void BM_Fig3(benchmark::State& state) {
  for (auto _ : state) run_fig3();
}
BENCHMARK(BM_Fig3)->Unit(benchmark::kSecond)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
