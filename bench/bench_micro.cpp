// Microbenchmarks of the substrates every experiment stands on: the link
// simulator, the streaming simulator, the ABR controllers, the offline
// optimum, PPO inference/updates, and one adversary-environment step. These
// quantify why paper-scale training budgets (600k steps) run in seconds.
//
// After the google-benchmark suites, main() measures the parallel execution
// layer directly — trace replay, VecEnv rollout, shadow-buffer PPO gradient
// updates, a miniature Figure-1 pipeline (concurrent adversary training +
// batch trace recording) at 1/2/N threads, the campaign DAG scheduler
// (per-job dispatch overhead and a miniature campaign at 1/2/8 threads),
// the scalar-vs-AVX2/AVX-512 MLP math kernels, and a shadow-gradient epoch
// with the rollout activation cache on vs off — and drops the numbers as
// bench_out/BENCH_parallel.json so the perf trajectory of the threading
// and SIMD work is tracked across PRs.
// Every section also re-checks the determinism contract: results at N
// threads (and on either kernel backend) must be bit-identical.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/optimal.hpp"
#include "abr/runner.hpp"
#include "cc/bbr.hpp"
#include "cc/runner.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "exp/campaign.hpp"
#include "exp/jobs.hpp"
#include "exp/scheduler.hpp"
#include "exp/spool.hpp"
#include "rl/distributions.hpp"
#include "rl/kernels.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/toy_envs.hpp"
#include "rl/vec_env.hpp"
#include "trace/generators.hpp"
#include "util/config.hpp"
#include "util/log.hpp"
#include "util/spec.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;

void BM_LinkTransmit(benchmark::State& state) {
  cc::LinkSim link;
  util::Rng rng{1};
  double now = 0.0;
  for (auto _ : state) {
    now += 0.001;
    benchmark::DoNotOptimize(link.transmit(now, rng));
  }
}
BENCHMARK(BM_LinkTransmit);

void BM_CcRunnerSimSecond(benchmark::State& state) {
  // One simulated second of a BBR flow on a 12 Mbps link (~1000 packets).
  for (auto _ : state) {
    state.PauseTiming();
    cc::BbrSender bbr;
    cc::CcRunner runner{bbr, {}, 2};
    state.ResumeTiming();
    runner.run_until(1.0);
    benchmark::DoNotOptimize(runner.total_delivered());
  }
}
BENCHMARK(BM_CcRunnerSimSecond)->Unit(benchmark::kMicrosecond);

void BM_StreamingChunk(benchmark::State& state) {
  const abr::VideoManifest m;
  abr::StreamingSession session{m};
  for (auto _ : state) {
    if (session.finished()) session.restart();
    benchmark::DoNotOptimize(session.download_next(3, 2.0));
  }
}
BENCHMARK(BM_StreamingChunk);

void BM_BbDecision(benchmark::State& state) {
  const abr::VideoManifest m;
  abr::BufferBased bb;
  bb.begin_video(m);
  abr::AbrObservation obs;
  obs.buffer_s = 12.0;
  for (auto _ : state) benchmark::DoNotOptimize(bb.choose_quality(obs));
}
BENCHMARK(BM_BbDecision);

void BM_MpcDecision(benchmark::State& state) {
  // One RobustMPC decision = exhaustive 6^5 plan search.
  const abr::VideoManifest m;
  abr::RobustMpc mpc;
  mpc.begin_video(m);
  abr::AbrObservation obs;
  obs.chunk_index = 10;
  obs.buffer_s = 12.0;
  obs.last_bitrate_mbps = 1.2;
  obs.throughput_history_mbps = {2.0, 2.2, 1.9, 2.1, 2.0};
  for (auto _ : state) benchmark::DoNotOptimize(mpc.choose_quality(obs));
}
BENCHMARK(BM_MpcDecision)->Unit(benchmark::kMicrosecond);

void BM_OfflineOptimalDp(benchmark::State& state) {
  const abr::VideoManifest m;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{3};
  const trace::Trace t = gen.generate(rng);
  for (auto _ : state) benchmark::DoNotOptimize(abr::optimal_playback(m, t));
}
BENCHMARK(BM_OfflineOptimalDp)->Unit(benchmark::kMillisecond);

void BM_OptimalWindow4(benchmark::State& state) {
  // The r_opt term computed every adversary step (6^4 plans).
  const abr::VideoManifest m;
  const std::vector<double> bw{1.0, 3.0, 2.0, 4.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(abr::optimal_window_qoe(m, 10, 8.0, 1.2, bw));
  }
}
BENCHMARK(BM_OptimalWindow4)->Unit(benchmark::kMicrosecond);

void BM_PolicyInference(benchmark::State& state) {
  // Deterministic action of the ABR adversary's 32x16 policy on the
  // 110-dimensional observation.
  abr::VideoManifest m;
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     core::abr_adversary_ppo_config(), 4};
  const rl::Vec obs(env.observation_size(), 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(agent.act_deterministic(obs));
}
BENCHMARK(BM_PolicyInference);

void BM_PpoUpdate(benchmark::State& state) {
  // One full PPO iteration (rollout of 256 + minibatch epochs) on a toy env.
  util::set_log_level(util::LogLevel::kWarn);
  rl::ContextualBanditEnv env{2, 2, 32};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {32, 16};
  cfg.n_steps = 256;
  cfg.minibatch_size = 64;
  cfg.epochs = 4;
  rl::PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 5};
  for (auto _ : state) {
    agent.train(env, cfg.n_steps);
  }
}
BENCHMARK(BM_PpoUpdate)->Unit(benchmark::kMillisecond);

void BM_AbrAdversaryEnvStep(benchmark::State& state) {
  abr::VideoManifest m;
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb};
  util::Rng rng{6};
  env.reset(rng);
  for (auto _ : state) {
    const rl::StepResult r = env.step({0.1}, rng);
    if (r.done) {
      state.PauseTiming();
      env.reset(rng);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_AbrAdversaryEnvStep)->Unit(benchmark::kMicrosecond);

void BM_CcAdversaryEnvStep(benchmark::State& state) {
  core::CcAdversaryEnv env;
  util::Rng rng{7};
  env.reset(rng);
  for (auto _ : state) {
    const rl::StepResult r = env.step({0.0, 0.0, -1.0}, rng);
    if (r.done) {
      state.PauseTiming();
      env.reset(rng);
      state.ResumeTiming();
    }
  }
}
BENCHMARK(BM_CcAdversaryEnvStep)->Unit(benchmark::kMicrosecond);

void BM_PolicyInferenceBatch(benchmark::State& state) {
  // Batched deterministic inference over N observations through the gemm
  // path; compare against N x BM_PolicyInference for the amortization win.
  abr::VideoManifest m;
  abr::BufferBased bb;
  core::AbrAdversaryEnv env{m, bb};
  rl::PpoAgent agent{env.observation_size(), env.action_spec(),
                     core::abr_adversary_ppo_config(), 4};
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::vector<rl::Vec> obs(batch, rl::Vec(env.observation_size(), 0.5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act_deterministic_batch(obs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PolicyInferenceBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_ParallelAbrReplay(benchmark::State& state) {
  // Figure-1 style corpus replay (MPC over 32 traces) across a pool of
  // state.range(0) threads.
  const abr::VideoManifest m;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{11};
  const auto traces = gen.generate_many(32, rng);
  util::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(abr::qoe_per_trace(
        []() -> std::unique_ptr<abr::AbrProtocol> {
          return std::make_unique<abr::RobustMpc>();
        },
        m, traces, {}, &pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(traces.size()));
}
BENCHMARK(BM_ParallelAbrReplay)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(util::ThreadPool::default_thread_count()))
    ->Unit(benchmark::kMillisecond);

void BM_VecEnvRollout(benchmark::State& state) {
  // 8 ABR-adversary replicas stepped as a batch across state.range(0)
  // threads — the PPO experience-collection hot loop.
  util::ThreadPool pool{static_cast<std::size_t>(state.range(0))};
  struct ReplicaEnv final : rl::Env {
    abr::VideoManifest manifest;
    abr::BufferBased bb;
    core::AbrAdversaryEnv env{manifest, bb};
    std::string name() const override { return env.name(); }
    std::size_t observation_size() const override {
      return env.observation_size();
    }
    rl::ActionSpec action_spec() const override { return env.action_spec(); }
    rl::Vec reset(util::Rng& rng) override { return env.reset(rng); }
    rl::StepResult step(const rl::Vec& action, util::Rng& rng) override {
      return env.step(action, rng);
    }
  };
  rl::VecEnv venv{[](std::size_t) { return std::make_unique<ReplicaEnv>(); },
                  /*n=*/8, /*seed=*/21, &pool};
  venv.reset_all();
  const std::vector<rl::Vec> actions(venv.size(), rl::Vec{0.1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(venv.step(actions));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(venv.size()));
}
BENCHMARK(BM_VecEnvRollout)
    ->Arg(1)
    ->Arg(2)
    ->Arg(static_cast<int>(util::ThreadPool::default_thread_count()))
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// BENCH_parallel.json: the perf-trajectory artifact for the threading layer.

struct ThreadSample {
  std::size_t threads = 0;
  double seconds = 0.0;
  double items_per_s = 0.0;
};

template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

void write_parallel_artifact() {
  const std::size_t hw = util::ThreadPool::default_thread_count();
  std::vector<std::size_t> thread_counts{1, 2};
  if (hw > 2) thread_counts.push_back(hw);

  // --- replay: MPC over a 64-trace corpus (the Figure-1/2 shape). ---
  const abr::VideoManifest manifest;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{2019};
  const auto traces = gen.generate_many(64, rng);
  const auto mpc_factory = []() -> std::unique_ptr<abr::AbrProtocol> {
    return std::make_unique<abr::RobustMpc>();
  };

  std::vector<ThreadSample> replay_samples;
  std::vector<double> reference_qoe;
  bool replay_identical = true;
  for (std::size_t threads : thread_counts) {
    util::ThreadPool pool{threads};
    std::vector<double> qoe;
    // Warm once (page in code/data), then time one full corpus replay.
    qoe = abr::qoe_per_trace(mpc_factory, manifest, traces, {}, &pool);
    ThreadSample sample;
    sample.threads = threads;
    sample.seconds = time_seconds([&] {
      qoe = abr::qoe_per_trace(mpc_factory, manifest, traces, {}, &pool);
    });
    sample.items_per_s = static_cast<double>(traces.size()) / sample.seconds;
    replay_samples.push_back(sample);
    if (reference_qoe.empty()) {
      reference_qoe = qoe;
    } else if (qoe != reference_qoe) {
      replay_identical = false;
    }
  }

  // --- rollout: 8 ABR-adversary replicas stepped for a fixed step budget. ---
  struct ReplicaEnv final : rl::Env {
    abr::VideoManifest manifest;
    abr::BufferBased bb;
    core::AbrAdversaryEnv env{manifest, bb};
    std::string name() const override { return env.name(); }
    std::size_t observation_size() const override {
      return env.observation_size();
    }
    rl::ActionSpec action_spec() const override { return env.action_spec(); }
    rl::Vec reset(util::Rng& rng) override { return env.reset(rng); }
    rl::StepResult step(const rl::Vec& action, util::Rng& rng) override {
      return env.step(action, rng);
    }
  };
  const std::size_t rollout_batches = 400;
  std::vector<ThreadSample> rollout_samples;
  for (std::size_t threads : thread_counts) {
    util::ThreadPool pool{threads};
    rl::VecEnv venv{[](std::size_t) { return std::make_unique<ReplicaEnv>(); },
                    /*n=*/8, /*seed=*/21, &pool};
    venv.reset_all();
    const std::vector<rl::Vec> actions(venv.size(), rl::Vec{0.1});
    ThreadSample sample;
    sample.threads = threads;
    sample.seconds = time_seconds([&] {
      for (std::size_t b = 0; b < rollout_batches; ++b) venv.step(actions);
    });
    sample.items_per_s =
        static_cast<double>(rollout_batches * venv.size()) / sample.seconds;
    rollout_samples.push_back(sample);
  }

  // --- gradient: PPO training through the shadow-buffer minibatch path. ---
  // Same agent/env/seed at every thread count; the final parameters must be
  // bit-identical to the 1-thread run (the tentpole determinism contract).
  const std::size_t gradient_train_steps = 2048;
  std::vector<ThreadSample> gradient_samples;
  std::vector<double> gradient_reference;
  bool gradient_identical = true;
  for (std::size_t threads : thread_counts) {
    util::ThreadPool pool{threads};
    util::set_log_level(util::LogLevel::kWarn);
    rl::ContextualBanditEnv env{2, 2, 32};
    rl::PpoConfig cfg;
    cfg.hidden_sizes = {32, 16};
    cfg.n_steps = 256;
    cfg.minibatch_size = 64;
    cfg.epochs = 4;
    rl::PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 5};
    agent.set_thread_pool(&pool);
    ThreadSample sample;
    sample.threads = threads;
    sample.seconds =
        time_seconds([&] { agent.train(env, gradient_train_steps); });
    sample.items_per_s =
        static_cast<double>(gradient_train_steps) / sample.seconds;
    gradient_samples.push_back(sample);
    std::vector<double> params;
    params.insert(params.end(), agent.actor().params().begin(),
                  agent.actor().params().end());
    params.insert(params.end(), agent.critic().params().begin(),
                  agent.critic().params().end());
    params.insert(params.end(), agent.log_std().begin(),
                  agent.log_std().end());
    if (gradient_reference.empty()) {
      gradient_reference = params;
    } else if (params != gradient_reference) {
      gradient_identical = false;
    }
  }

  // --- fig_pipeline: a miniature Figure-1/2 pipeline — two adversaries
  // trained concurrently (one PPO rollout each), then a batch-recorded
  // adversarial corpus. The same shape bench_fig1/bench_fig2 run at scale. ---
  const std::size_t pipeline_traces = 8;
  std::vector<ThreadSample> pipeline_samples;
  std::vector<double> pipeline_reference;
  bool pipeline_identical = true;
  for (std::size_t threads : thread_counts) {
    util::ThreadPool pool{threads};
    abr::VideoManifest::Params mini_params;
    mini_params.size_variation = 0.0;
    const abr::VideoManifest mini{mini_params};
    abr::BufferBased bb0;
    abr::BufferBased bb1;
    core::AbrAdversaryEnv env0{mini, bb0};
    core::AbrAdversaryEnv env1{mini, bb1};
    std::vector<double> signature;
    ThreadSample sample;
    sample.threads = threads;
    sample.seconds = time_seconds([&] {
      const std::vector<rl::PpoAgent> adversaries =
          core::train_adversaries(
              {{&env0, core::abr_adversary_ppo_config(), 1, 7},
               {&env1, core::abr_adversary_ppo_config(), 1, 13}},
              &pool);
      const auto traces = core::record_abr_traces(
          adversaries[0], mini,
          []() -> std::unique_ptr<abr::AbrProtocol> {
            return std::make_unique<abr::BufferBased>();
          },
          core::AbrAdversaryEnv::Params{}, pipeline_traces, /*seed=*/99,
          /*deterministic=*/false, &pool);
      for (const auto& adversary : adversaries) {
        signature.insert(signature.end(), adversary.actor().params().begin(),
                         adversary.actor().params().end());
      }
      for (const auto& t : traces) {
        for (const auto& s : t.segments()) {
          signature.push_back(s.bandwidth_mbps);
        }
      }
    });
    sample.items_per_s =
        static_cast<double>(pipeline_traces) / sample.seconds;
    pipeline_samples.push_back(sample);
    if (pipeline_reference.empty()) {
      pipeline_reference = signature;
    } else if (signature != pipeline_reference) {
      pipeline_identical = false;
    }
  }

  // --- scheduler: the campaign engine's DAG dispatch (exp::run_campaign).
  // Two measurements at threads {1, 2, 8} (oversubscribing a smaller
  // machine is safe — only wall-clock changes):
  //   * dispatch — 64 no-op jobs in 8 chains of 8 (8 waves), isolating the
  //     per-job scheduling cost: wave fan-out, provenance hashing, manifest
  //     append. seconds / jobs = dispatch overhead per job.
  //   * campaign — a miniature real campaign (2 gen-traces -> 2 replay
  //     jobs), wall-clock plus the artifact bit-identity check every other
  //     section runs. ---
  const std::vector<std::size_t> sched_thread_counts{1, 2, 8};
  const auto sched_root =
      std::filesystem::temp_directory_path() / "netadv_bench_micro_sched";
  const std::size_t dispatch_jobs = 64;
  std::string dispatch_spec = "[campaign]\nname = micro-dispatch\nseed = 3\n";
  dispatch_spec += "out_dir = " + (sched_root / "dispatch").string() + "\n";
  for (std::size_t i = 0; i < dispatch_jobs; ++i) {
    dispatch_spec += "[job j" + std::to_string(i) + "]\nkind = noop\n";
    if (i >= 8) {
      dispatch_spec += "after = j" + std::to_string(i - 8) + "\n";
    }
  }
  exp::JobRegistry noop_registry;
  noop_registry.add("noop",
                    [](const exp::JobContext&) { return exp::JobResult{}; });
  const exp::Campaign dispatch_campaign = exp::parse_campaign(
      util::parse_spec_text(dispatch_spec, "bench-micro-dispatch"));
  std::vector<ThreadSample> dispatch_samples;
  for (std::size_t threads : sched_thread_counts) {
    util::ThreadPool pool{threads};
    exp::SchedulerOptions opts;
    opts.pool = &pool;
    // Warm once (creates out_dir, pages in the scheduler), then time.
    exp::run_campaign(dispatch_campaign, noop_registry, opts);
    ThreadSample sample;
    sample.threads = threads;
    sample.seconds = time_seconds(
        [&] { exp::run_campaign(dispatch_campaign, noop_registry, opts); });
    sample.items_per_s = static_cast<double>(dispatch_jobs) / sample.seconds;
    dispatch_samples.push_back(sample);
  }

  const std::string sched_spec_body =
      "[job gen-a]\nkind = gen-traces\ngenerator = random\ncount = 12\n"
      "[job gen-b]\nkind = gen-traces\ngenerator = random\ncount = 12\n"
      "[job replay-a]\nkind = replay\nafter = gen-a\ntraces = gen-a\n"
      "protocol = bb\n"
      "[job replay-b]\nkind = replay\nafter = gen-b\ntraces = gen-b\n"
      "protocol = mpc\n";
  const exp::JobRegistry builtin_registry = exp::builtin_jobs();
  std::vector<ThreadSample> sched_samples;
  std::string sched_reference;
  bool sched_identical = true;
  for (std::size_t threads : sched_thread_counts) {
    util::ThreadPool pool{threads};
    // One out_dir per thread count so the artifact bytes can be compared
    // across runs afterwards.
    const auto out_dir = sched_root / ("campaign_t" + std::to_string(threads));
    const std::string sched_spec = "[campaign]\nname = micro-sched\nseed = 5\n"
                                   "out_dir = " + out_dir.string() + "\n" +
                                   sched_spec_body;
    const exp::Campaign sched_campaign = exp::parse_campaign(
        util::parse_spec_text(sched_spec, "bench-micro-sched"));
    exp::SchedulerOptions opts;
    opts.pool = &pool;
    exp::CampaignReport report;
    ThreadSample sample;
    sample.threads = threads;
    sample.seconds = time_seconds(
        [&] { report = exp::run_campaign(sched_campaign, builtin_registry, opts); });
    sample.items_per_s =
        static_cast<double>(sched_campaign.jobs.size()) / sample.seconds;
    sched_samples.push_back(sample);
    std::string signature;
    bool complete = report.ok();
    for (const auto& outcome : report.outcomes) {
      for (const auto& artifact : outcome.result.artifacts) {
        std::ifstream in{artifact, std::ios::binary};
        if (!in) {
          complete = false;
          continue;
        }
        std::ostringstream bytes;
        bytes << in.rdbuf();
        signature += bytes.str();
      }
    }
    if (!complete) {
      sched_identical = false;
    } else if (sched_reference.empty()) {
      sched_reference = signature;
    } else if (signature != sched_reference) {
      sched_identical = false;
    }
  }
  // --- workers: the same miniature campaign executed by a spool-worker
  // fleet (exp::run_worker) at 1/2/4 workers sharing one out_dir. Each
  // worker here is an in-process thread running the full worker protocol
  // (manifest derivation, claim files, heartbeats), so the sample measures
  // claim/poll overhead and fan-out, not process startup. Artifact bytes
  // must be identical at every worker count — the distributed analogue of
  // the thread-count identity above. ---
  const std::vector<std::size_t> worker_counts{1, 2, 4};
  struct WorkerSample {
    std::size_t workers = 1;
    double seconds = 0.0;
  };
  std::vector<WorkerSample> worker_samples;
  std::string worker_reference;
  bool worker_identical = true;
  for (std::size_t workers : worker_counts) {
    const auto out_dir = sched_root / ("workers_" + std::to_string(workers));
    const std::string worker_spec =
        "[campaign]\nname = micro-sched\nseed = 5\n"
        "out_dir = " + out_dir.string() + "\n" + sched_spec_body;
    const exp::Campaign worker_campaign = exp::parse_campaign(
        util::parse_spec_text(worker_spec, "bench-micro-workers"));
    std::vector<exp::WorkerReport> reports(workers);
    WorkerSample sample;
    sample.workers = workers;
    sample.seconds = time_seconds([&] {
      std::vector<std::thread> fleet;
      for (std::size_t w = 0; w < workers; ++w) {
        fleet.emplace_back([&, w] {
          exp::SpoolOptions opts;
          opts.worker = "bench-w" + std::to_string(w);
          opts.poll_ms = 5;
          reports[w] = exp::run_worker(worker_campaign, builtin_registry,
                                       opts);
        });
      }
      for (auto& t : fleet) t.join();
    });
    worker_samples.push_back(sample);
    bool complete = true;
    for (const auto& report : reports) {
      if (!report.ok()) complete = false;
    }
    // Signature: artifact bytes keyed by filename (relative — out_dirs
    // differ per worker count), in sorted order.
    std::vector<std::filesystem::path> files;
    std::error_code worker_ls_ec;
    for (const auto& it :
         std::filesystem::directory_iterator(out_dir, worker_ls_ec)) {
      if (!it.is_regular_file()) continue;
      if (it.path().filename() == exp::kManifestFilename) continue;
      files.push_back(it.path());
    }
    std::sort(files.begin(), files.end());
    std::string signature;
    for (const auto& file : files) {
      std::ifstream in{file, std::ios::binary};
      std::ostringstream bytes;
      bytes << in.rdbuf();
      signature += file.filename().string() + "\n" + bytes.str();
    }
    if (!complete) {
      worker_identical = false;
    } else if (worker_reference.empty()) {
      worker_reference = signature;
    } else if (signature != worker_reference) {
      worker_identical = false;
    }
  }

  std::error_code sched_cleanup_ec;
  std::filesystem::remove_all(sched_root, sched_cleanup_ec);
  const double dispatch_us_per_job =
      dispatch_samples.front().seconds /
      static_cast<double>(dispatch_jobs) * 1e6;

  // --- kernels: scalar vs AVX2 (and, where the host supports it, AVX-512)
  // backends of the MLP math kernels. Direct backend calls (no dispatch
  // flip), so all are timed in one process and the outputs can be compared
  // bit for bit — the same identity the test_kernels suite gates on. ---
  struct KernelSample {
    const char* name = "";
    double scalar_seconds = 0.0;
    double simd_seconds = 0.0;
    double avx512_seconds = 0.0;  // 0 when the host cannot run AVX-512
    bool bit_identical = true;
  };
  const bool kernel_avx512_available =
      rl::kernels::backend_available(rl::kernels::Backend::kAvx512);
  std::vector<KernelSample> kernel_samples;
  {
    util::Rng krng{77};
    const std::size_t kr = 64, kc = 64, kb = 256;
    rl::Vec kw(kr * kc), kb_bias(kr), kx(kc), kxb(kb * kc);
    for (auto& v : kw) v = krng.uniform(-1.0, 1.0);
    for (auto& v : kb_bias) v = krng.uniform(-1.0, 1.0);
    for (auto& v : kx) v = krng.uniform(-1.0, 1.0);
    for (auto& v : kxb) v = krng.uniform(-1.0, 1.0);

    {
      KernelSample s;
      s.name = "gemm_64x64_batch256";
      rl::Vec ys(kb * kr, 0.0), yv(kb * kr, 0.0), yz(kb * kr, 0.0);
      const std::size_t reps = 40;
      s.scalar_seconds = time_seconds([&] {
        for (std::size_t i = 0; i < reps; ++i) {
          rl::kernels::scalar::gemm(kw, kr, kc, kxb, kb, kb_bias, ys);
        }
      });
      s.simd_seconds = time_seconds([&] {
        for (std::size_t i = 0; i < reps; ++i) {
          rl::kernels::avx2::gemm(kw, kr, kc, kxb, kb, kb_bias, yv);
        }
      });
      s.bit_identical = (ys == yv);
      if (kernel_avx512_available) {
        s.avx512_seconds = time_seconds([&] {
          for (std::size_t i = 0; i < reps; ++i) {
            rl::kernels::avx512::gemm(kw, kr, kc, kxb, kb, kb_bias, yz);
          }
        });
        s.bit_identical = s.bit_identical && (ys == yz);
      }
      kernel_samples.push_back(s);
    }
    {
      KernelSample s;
      s.name = "gemv_64x64";
      rl::Vec ys(kr, 0.0), yv(kr, 0.0), yz(kr, 0.0);
      const std::size_t reps = 20000;
      s.scalar_seconds = time_seconds([&] {
        for (std::size_t i = 0; i < reps; ++i) {
          rl::kernels::scalar::gemv(kw, kr, kc, kx, kb_bias, ys);
        }
      });
      s.simd_seconds = time_seconds([&] {
        for (std::size_t i = 0; i < reps; ++i) {
          rl::kernels::avx2::gemv(kw, kr, kc, kx, kb_bias, yv);
        }
      });
      s.bit_identical = (ys == yv);
      if (kernel_avx512_available) {
        s.avx512_seconds = time_seconds([&] {
          for (std::size_t i = 0; i < reps; ++i) {
            rl::kernels::avx512::gemv(kw, kr, kc, kx, kb_bias, yz);
          }
        });
        s.bit_identical = s.bit_identical && (ys == yz);
      }
      kernel_samples.push_back(s);
    }
    {
      KernelSample s;
      s.name = "dot_4096";
      rl::Vec a(4096), c(4096);
      for (auto& v : a) v = krng.uniform(-1.0, 1.0);
      for (auto& v : c) v = krng.uniform(-1.0, 1.0);
      double rs = 0.0, rv = 0.0, rz = 0.0;
      const std::size_t reps = 20000;
      s.scalar_seconds = time_seconds([&] {
        for (std::size_t i = 0; i < reps; ++i) rs += rl::kernels::scalar::dot(a, c);
      });
      s.simd_seconds = time_seconds([&] {
        for (std::size_t i = 0; i < reps; ++i) rv += rl::kernels::avx2::dot(a, c);
      });
      s.bit_identical = (rs == rv);
      if (kernel_avx512_available) {
        s.avx512_seconds = time_seconds([&] {
          for (std::size_t i = 0; i < reps; ++i) {
            rz += rl::kernels::avx512::dot(a, c);
          }
        });
        s.bit_identical = s.bit_identical && (rs == rz);
      }
      kernel_samples.push_back(s);
    }
  }
  const bool kernel_simd_available =
      rl::kernels::avx2_compiled() && rl::kernels::avx2_runtime_supported();
  bool kernel_identical = true;
  for (const auto& s : kernel_samples) kernel_identical &= s.bit_identical;
  double kernel_gemm_speedup = 0.0;
  for (const auto& s : kernel_samples) {
    if (std::string{s.name}.rfind("gemm", 0) == 0 && s.simd_seconds > 0.0) {
      kernel_gemm_speedup = s.scalar_seconds / s.simd_seconds;
    }
  }

  // --- activation_cache: one shadow-gradient epoch over a 1024-step rollout
  // (single full-batch minibatch, so every sample's rollout activations are
  // still version-fresh) with the cache on vs off. An epoch without the
  // cache is forward + backward per network; with it the forwards vanish, so
  // the target is a >= 25% epoch wall-clock drop (~33% is the arithmetic
  // bound when backward ~ 2x forward). Cache-on refills (the rollout-time
  // forwards) happen outside the timed region — during training they are
  // paid by the rollout, which needs the heads/values anyway. ---
  const std::size_t cache_steps = 1024;
  const std::size_t cache_reps = 5;
  double cache_on_seconds = 0.0;
  double cache_off_seconds = 0.0;
  bool cache_params_identical = true;
  {
    util::set_log_level(util::LogLevel::kWarn);
    const std::size_t cache_obs = 64;
    rl::PpoConfig cfg;
    cfg.hidden_sizes = {64, 64};
    cfg.n_steps = cache_steps;
    cfg.minibatch_size = cache_steps;
    cfg.epochs = 1;
    const rl::ActionSpec spec = rl::ActionSpec::discrete(4);
    rl::PpoAgent on_agent{cache_obs, spec, cfg, 6};
    rl::PpoAgent off_agent{cache_obs, spec, cfg, 6};
    off_agent.set_activation_cache(false);

    // One shared synthetic rollout (observations/actions/targets); each
    // agent gets its own buffer so the cache-on copy can carry stamped
    // activation records.
    util::Rng crng{2025};
    std::vector<rl::Vec> cache_obs_batch(cache_steps);
    for (auto& obs : cache_obs_batch) {
      obs.resize(cache_obs);
      for (auto& v : obs) v = crng.uniform(-1.0, 1.0);
    }
    const auto fill_buffer = [&](rl::PpoAgent& agent, bool with_cache,
                                 rl::RolloutBuffer& buffer) {
      buffer.clear();
      const rl::Mlp& actor = std::as_const(agent).actor();
      const rl::Mlp& critic = std::as_const(agent).critic();
      util::Rng fill_rng{7};
      rl::Mlp::Workspace scratch_a, scratch_c;
      for (std::size_t i = 0; i < cache_steps; ++i) {
        rl::Transition t;
        t.observation = cache_obs_batch[i];
        rl::Mlp::Workspace& wa = with_cache ? t.cache.actor : scratch_a;
        rl::Mlp::Workspace& wc = with_cache ? t.cache.critic : scratch_c;
        const rl::Vec& head = actor.forward(t.observation, wa);
        t.value = critic.forward(t.observation, wc)[0];
        if (with_cache) {
          t.cache.actor_version = actor.param_version();
          t.cache.critic_version = critic.param_version();
        }
        const std::size_t a = rl::Categorical::sample(head, fill_rng);
        t.action = {static_cast<double>(a)};
        t.log_prob = rl::Categorical::log_prob(head, a);
        t.advantage = fill_rng.uniform(-1.0, 1.0);
        t.return_ = t.value + t.advantage;
        buffer.add(std::move(t));
      }
    };

    rl::RolloutBuffer on_buffer{cache_steps};
    rl::RolloutBuffer off_buffer{cache_steps};
    // Warm both paths once (allocations, code paging), untimed.
    fill_buffer(on_agent, true, on_buffer);
    on_agent.run_update_epochs(on_buffer);
    fill_buffer(off_agent, false, off_buffer);
    off_agent.run_update_epochs(off_buffer);
    for (std::size_t rep = 0; rep < cache_reps; ++rep) {
      // Refill each rep: the optimizer step at the end of the previous epoch
      // bumped the param version, staling the previous stamps.
      fill_buffer(on_agent, true, on_buffer);
      cache_on_seconds +=
          time_seconds([&] { on_agent.run_update_epochs(on_buffer); });
      fill_buffer(off_agent, false, off_buffer);
      cache_off_seconds +=
          time_seconds([&] { off_agent.run_update_epochs(off_buffer); });
    }
    // Same seed + same rollout content + bit-identical reuse => the two
    // agents must have trained to byte-identical parameters.
    const auto pa = std::as_const(on_agent).actor().params();
    const auto pb = std::as_const(off_agent).actor().params();
    cache_params_identical =
        pa.size() == pb.size() && std::equal(pa.begin(), pa.end(), pb.begin());
  }
  const double cache_epoch_drop =
      cache_off_seconds > 0.0 ? 1.0 - cache_on_seconds / cache_off_seconds
                              : 0.0;

  const auto speedup = [](const std::vector<ThreadSample>& samples) {
    double best = 0.0;
    for (const auto& s : samples) {
      best = std::max(best, s.items_per_s / samples.front().items_per_s);
    }
    return best;
  };

  const std::string path = util::bench_output_dir() + "/BENCH_parallel.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    util::log_error("BENCH_parallel: cannot open %s", path.c_str());
    return;
  }
  const auto write_samples = [&](const char* key,
                                 const std::vector<ThreadSample>& samples,
                                 const char* items_name) {
    std::fprintf(f, "  \"%s\": [\n", key);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      std::fprintf(f,
                   "    {\"threads\": %zu, \"seconds\": %.6f, "
                   "\"%s\": %.2f}%s\n",
                   samples[i].threads, samples[i].seconds, items_name,
                   samples[i].items_per_s, i + 1 < samples.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"generated_by\": \"bench_micro\",\n");
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f, "  \"replay_traces\": %zu,\n", traces.size());
  std::fprintf(f, "  \"replay_protocol\": \"mpc\",\n");
  std::fprintf(f, "  \"replay_results_identical\": %s,\n",
               replay_identical ? "true" : "false");
  write_samples("replay", replay_samples, "traces_per_s");
  std::fprintf(f, "  \"rollout_envs\": 8,\n");
  std::fprintf(f, "  \"rollout_batches\": %zu,\n", rollout_batches);
  write_samples("rollout", rollout_samples, "steps_per_s");
  std::fprintf(f, "  \"gradient_train_steps\": %zu,\n", gradient_train_steps);
  std::fprintf(f, "  \"gradient_params_identical\": %s,\n",
               gradient_identical ? "true" : "false");
  write_samples("gradient", gradient_samples, "steps_per_s");
  std::fprintf(f, "  \"fig_pipeline_adversaries\": 2,\n");
  std::fprintf(f, "  \"fig_pipeline_traces\": %zu,\n", pipeline_traces);
  std::fprintf(f, "  \"fig_pipeline_results_identical\": %s,\n",
               pipeline_identical ? "true" : "false");
  write_samples("fig_pipeline", pipeline_samples, "traces_per_s");
  std::fprintf(f, "  \"scheduler_dispatch_jobs\": %zu,\n", dispatch_jobs);
  std::fprintf(f, "  \"scheduler_dispatch_waves\": 8,\n");
  std::fprintf(f, "  \"scheduler_dispatch_us_per_job\": %.2f,\n",
               dispatch_us_per_job);
  write_samples("scheduler_dispatch", dispatch_samples, "jobs_per_s");
  std::fprintf(f, "  \"scheduler_campaign_jobs\": 4,\n");
  std::fprintf(f, "  \"scheduler_results_identical\": %s,\n",
               sched_identical ? "true" : "false");
  write_samples("scheduler_campaign", sched_samples, "jobs_per_s");
  std::fprintf(f, "  \"kernel_backend_active\": \"%s\",\n",
               rl::kernels::backend_name());
  std::fprintf(f, "  \"kernel_avx2_available\": %s,\n",
               kernel_simd_available ? "true" : "false");
  std::fprintf(f, "  \"kernel_avx512_available\": %s,\n",
               kernel_avx512_available ? "true" : "false");
  std::fprintf(f, "  \"kernel_results_identical\": %s,\n",
               kernel_identical ? "true" : "false");
  std::fprintf(f, "  \"kernels\": [\n");
  for (std::size_t i = 0; i < kernel_samples.size(); ++i) {
    const auto& s = kernel_samples[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"scalar_seconds\": %.6f, "
                 "\"avx2_seconds\": %.6f, \"avx512_seconds\": %.6f, "
                 "\"speedup\": %.3f, \"bit_identical\": %s}%s\n",
                 s.name, s.scalar_seconds, s.simd_seconds, s.avx512_seconds,
                 s.simd_seconds > 0.0 ? s.scalar_seconds / s.simd_seconds : 0.0,
                 s.bit_identical ? "true" : "false",
                 i + 1 < kernel_samples.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"kernel_gemm_speedup_scalar_to_avx2\": %.3f,\n",
               kernel_gemm_speedup);
  std::fprintf(f, "  \"activation_cache\": {\n");
  std::fprintf(f, "    \"rollout_steps\": %zu,\n", cache_steps);
  std::fprintf(f, "    \"epochs_timed\": %zu,\n", cache_reps);
  std::fprintf(f, "    \"epoch_seconds_cache_off\": %.6f,\n",
               cache_off_seconds / static_cast<double>(cache_reps));
  std::fprintf(f, "    \"epoch_seconds_cache_on\": %.6f,\n",
               cache_on_seconds / static_cast<double>(cache_reps));
  std::fprintf(f, "    \"epoch_wallclock_drop\": %.3f,\n", cache_epoch_drop);
  std::fprintf(f, "    \"trained_params_identical\": %s\n",
               cache_params_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"replay_speedup_vs_1_thread\": %.3f,\n",
               speedup(replay_samples));
  std::fprintf(f, "  \"rollout_speedup_vs_1_thread\": %.3f,\n",
               speedup(rollout_samples));
  std::fprintf(f, "  \"gradient_speedup_vs_1_thread\": %.3f,\n",
               speedup(gradient_samples));
  std::fprintf(f, "  \"fig_pipeline_speedup_vs_1_thread\": %.3f,\n",
               speedup(pipeline_samples));
  std::fprintf(f, "  \"scheduler_campaign_speedup_vs_1_thread\": %.3f,\n",
               speedup(sched_samples));
  std::fprintf(f, "  \"workers\": {\n");
  std::fprintf(f, "    \"samples\": [\n");
  for (std::size_t i = 0; i < worker_samples.size(); ++i) {
    const auto& s = worker_samples[i];
    std::fprintf(f, "      {\"workers\": %zu, \"seconds\": %.6f}%s\n",
                 s.workers, s.seconds,
                 i + 1 < worker_samples.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"speedup_vs_1_worker\": %.3f,\n",
               worker_samples.back().seconds > 0.0
                   ? worker_samples.front().seconds /
                         worker_samples.back().seconds
                   : 0.0);
  std::fprintf(f, "    \"artifacts_identical\": %s\n",
               worker_identical ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  util::log_info("BENCH_parallel: wrote %s (replay %.2fx, rollout %.2fx, "
                 "gradient %.2fx, fig pipeline %.2fx at %zu threads; "
                 "campaign dispatch %.1f us/job; gemm scalar->%s %.2fx; "
                 "activation cache epoch drop %.0f%%; "
                 "all results identical: %s)",
                 path.c_str(), speedup(replay_samples),
                 speedup(rollout_samples), speedup(gradient_samples),
                 speedup(pipeline_samples), hw, dispatch_us_per_job,
                 rl::kernels::backend_name(), kernel_gemm_speedup,
                 cache_epoch_drop * 100.0,
                 replay_identical && gradient_identical &&
                         pipeline_identical && sched_identical &&
                         worker_identical && kernel_identical &&
                         cache_params_identical
                     ? "yes"
                     : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_parallel_artifact();
  return 0;
}
