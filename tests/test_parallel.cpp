// Determinism gates for the parallel execution layer: the same seed must
// produce bit-identical results at thread counts 1, 2, and 8 — replayed QoE
// vectors, CC and multi-flow fairness replay metrics, VecEnv trajectories,
// trained PPO parameters through the shadow-buffer gradient path,
// concurrently trained adversaries, and batch-recorded ABR, CC and fairness
// corpora. Also covers ThreadPool semantics (coverage, ordering, exception
// propagation, with and without a pool) and the batched gemm forward path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/runner.hpp"
#include "cc/bbr.hpp"
#include "cc/cubic.hpp"
#include "core/recorder.hpp"
#include "core/trainer.hpp"
#include "rl/mlp.hpp"
#include "rl/ppo.hpp"
#include "rl/toy_envs.hpp"
#include "rl/vec_env.hpp"
#include "trace/generators.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace netadv;

const std::size_t kThreadCounts[] = {1, 2, 8};

/// Pools at every gated thread count, plus nullptr: the sequential lane of
/// the nullable-pool util::parallel_for / parallel_map.
std::vector<std::unique_ptr<util::ThreadPool>> pools_and_null() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  pools.push_back(nullptr);
  for (std::size_t threads : kThreadCounts) {
    pools.push_back(std::make_unique<util::ThreadPool>(threads));
  }
  return pools;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (const auto& pool : pools_and_null()) {
    std::vector<std::atomic<int>> hits(257);
    util::parallel_for(pool.get(), hits.size(),
                       [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, MapReturnsResultsInIndexOrder) {
  for (const auto& pool : pools_and_null()) {
    const auto out = util::parallel_map(
        pool.get(), 100, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], 3 * i + 1);
    if (pool) {
      EXPECT_EQ(pool->parallel_map(100, [](std::size_t i) { return 3 * i + 1; }),
                out);
    }
  }
}

TEST(ThreadPool, PropagatesTaskExceptions) {
  for (const auto& pool : pools_and_null()) {
    EXPECT_THROW(util::parallel_for(pool.get(), 64,
                                    [](std::size_t i) {
                                      if (i == 13) {
                                        throw std::runtime_error{"boom"};
                                      }
                                    }),
                 std::runtime_error);
    // The pool must stay usable after an exceptional batch.
    const auto out =
        util::parallel_map(pool.get(), 8, [](std::size_t i) { return i; });
    EXPECT_EQ(out.size(), 8u);
  }
  // Without a pool the loop runs in index order, so the first task to throw
  // is the lowest throwing index, and nothing after it runs.
  std::vector<int> ran(64, 0);
  try {
    util::parallel_for(nullptr, ran.size(), [&](std::size_t i) {
      ran[i] = 1;
      if (i == 13 || i == 40) throw std::runtime_error{std::to_string(i)};
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "13");
  }
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 14);
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  util::ThreadPool pool{4};
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ThreadSafeLoggingSmoke) {
  // No assertion beyond "does not crash/TSan-trip": many threads logging.
  util::ThreadPool pool{8};
  pool.parallel_for(64, [](std::size_t i) {
    util::log_debug("parallel log line %zu", i);
  });
}

TEST(RngForkStreams, IndependentOfConsumptionOrder) {
  util::Rng a{42};
  util::Rng b{42};
  auto streams_a = a.fork_streams(4);
  auto streams_b = b.fork_streams(4);
  // Consume in different orders; each stream still yields the same values.
  std::vector<std::uint64_t> first_a(4), first_b(4);
  for (std::size_t i = 0; i < 4; ++i) first_a[i] = streams_a[i]();
  for (std::size_t i = 4; i-- > 0;) first_b[i] = streams_b[i]();
  EXPECT_EQ(first_a, first_b);
}

TEST(BatchedForward, MatchesPerSampleForwardBitExactly) {
  util::Rng rng{7};
  rl::Mlp net{{11, 32, 16, 5}, rl::Activation::kTanh, 0.01, rng};
  std::vector<rl::Vec> inputs;
  for (std::size_t n = 0; n < 17; ++n) {
    rl::Vec x(11);
    for (auto& v : x) v = rng.uniform(-2.0, 2.0);
    inputs.push_back(std::move(x));
  }
  const auto batched = net.forward_batch(inputs);
  ASSERT_EQ(batched.size(), inputs.size());
  for (std::size_t n = 0; n < inputs.size(); ++n) {
    const rl::Vec& single = net.forward(inputs[n]);
    ASSERT_EQ(batched[n].size(), single.size());
    for (std::size_t j = 0; j < single.size(); ++j) {
      EXPECT_EQ(batched[n][j], single[j]);  // bit-identical, not just close
    }
  }
}

std::vector<double> replay_qoe_at(std::size_t threads,
                                  const abr::VideoManifest& manifest,
                                  const std::vector<trace::Trace>& traces) {
  util::ThreadPool pool{threads};
  return abr::qoe_per_trace(
      []() -> std::unique_ptr<abr::AbrProtocol> {
        return std::make_unique<abr::RobustMpc>();
      },
      manifest, traces, {}, &pool);
}

TEST(ParallelReplay, AbrQoeIdenticalAcrossThreadCounts) {
  const abr::VideoManifest manifest;
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{2024};
  const auto traces = gen.generate_many(24, rng);

  // Sequential single-instance replay is the reference result.
  abr::RobustMpc mpc;
  const auto reference = abr::qoe_per_trace(mpc, manifest, traces);

  for (std::size_t threads : kThreadCounts) {
    const auto parallel = replay_qoe_at(threads, manifest, traces);
    ASSERT_EQ(parallel.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(parallel[i], reference[i])
          << "trace " << i << " at " << threads << " threads";
    }
  }
}

/// Eight random traces cut to their first six segments, so the
/// packet-level sims stay cheap.
std::vector<trace::Trace> short_random_traces() {
  trace::UniformRandomGenerator gen{{}};
  util::Rng rng{99};
  std::vector<trace::Trace> traces;
  for (const auto& full : gen.generate_many(8, rng)) {
    const std::size_t keep = std::min<std::size_t>(6, full.size());
    std::vector<trace::Segment> head(full.segments().begin(),
                                     full.segments().begin() +
                                         static_cast<std::ptrdiff_t>(keep));
    traces.emplace_back(std::move(head));
  }
  return traces;
}

/// A two-flow BBR + Cubic mix for the fairness gates.
std::vector<core::SenderFactory> bbr_cubic_mix() {
  return {[] { return std::make_unique<cc::BbrSender>(); },
          [] { return std::make_unique<cc::CubicSender>(); }};
}

TEST(ParallelReplay, CcReplayIdenticalAcrossThreadCounts) {
  const std::vector<trace::Trace> traces = short_random_traces();

  auto replay_at = [&](std::size_t threads) {
    util::ThreadPool pool{threads};
    return core::replay_cc_traces(
        []() -> std::unique_ptr<cc::CcSender> {
          return std::make_unique<cc::CubicSender>();
        },
        traces, {}, 5, &pool);
  };

  const auto reference = replay_at(1);
  for (std::size_t threads : kThreadCounts) {
    const auto results = replay_at(threads);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[i].mean_utilization, reference[i].mean_utilization);
      EXPECT_EQ(results[i].mean_throughput_mbps,
                reference[i].mean_throughput_mbps);
      EXPECT_EQ(results[i].throughput_mbps, reference[i].throughput_mbps);
    }
  }
}

TEST(ParallelReplay, FairnessReplayIdenticalAcrossThreadCounts) {
  const std::vector<trace::Trace> traces = short_random_traces();
  const std::vector<core::SenderFactory> mix = bbr_cubic_mix();
  const auto replay_at = [&](util::ThreadPool* pool) {
    return core::replay_fairness_traces(mix, traces, {}, /*stagger_s=*/0.2,
                                        /*seed=*/5, pool);
  };
  const auto reference = replay_at(nullptr);
  ASSERT_EQ(reference.size(), traces.size());
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const auto results = replay_at(&pool);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[i].mean_jain, reference[i].mean_jain);
      EXPECT_EQ(results[i].mean_victim_utilization,
                reference[i].mean_victim_utilization);
      EXPECT_EQ(results[i].mean_aggregate_utilization,
                reference[i].mean_aggregate_utilization);
      EXPECT_EQ(results[i].mean_flow_throughput_mbps,
                reference[i].mean_flow_throughput_mbps);
      EXPECT_EQ(results[i].jain, reference[i].jain)
          << "trace " << i << " at " << threads << " threads";
    }
  }
}

rl::VecEnv::StepBatch roll_vecenv_at(std::size_t threads) {
  util::ThreadPool pool{threads};
  rl::VecEnv venv{[](std::size_t) { return std::make_unique<rl::ContextualBanditEnv>(3, 4, 5); },
                  /*n=*/6, /*seed=*/17, &pool};
  venv.reset_all();
  rl::VecEnv::StepBatch last;
  for (int step = 0; step < 20; ++step) {
    std::vector<rl::Vec> actions(venv.size(),
                                 rl::Vec{static_cast<double>(step % 4)});
    last = venv.step(actions);
  }
  return last;
}

TEST(VecEnv, TrajectoriesIdenticalAcrossThreadCounts) {
  const auto reference = roll_vecenv_at(1);
  for (std::size_t threads : kThreadCounts) {
    const auto batch = roll_vecenv_at(threads);
    EXPECT_EQ(batch.observations, reference.observations);
    EXPECT_EQ(batch.rewards, reference.rewards);
    EXPECT_EQ(batch.dones, reference.dones);
  }
}

rl::PpoAgent train_vec_ppo_at(std::size_t threads) {
  util::set_log_level(util::LogLevel::kWarn);
  util::ThreadPool pool{threads};
  rl::VecEnv venv{[](std::size_t) { return std::make_unique<rl::ContextualBanditEnv>(2, 3, 8); },
                  /*n=*/4, /*seed=*/23, &pool};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {16, 8};
  cfg.n_steps = 128;
  cfg.minibatch_size = 32;
  cfg.epochs = 3;
  rl::PpoAgent agent{venv.observation_size(), venv.action_spec(), cfg, 31};
  agent.train(venv, 512);
  return agent;
}

TEST(VecPpo, TrainedParametersIdenticalAcrossThreadCounts) {
  const rl::PpoAgent reference = train_vec_ppo_at(1);
  for (std::size_t threads : kThreadCounts) {
    rl::PpoAgent agent = train_vec_ppo_at(threads);
    const auto ref_actor = reference.actor().params();
    const auto actor = agent.actor().params();
    ASSERT_EQ(actor.size(), ref_actor.size());
    for (std::size_t i = 0; i < actor.size(); ++i) {
      ASSERT_EQ(actor[i], ref_actor[i])
          << "actor param " << i << " differs at " << threads << " threads";
    }
    const auto ref_critic = reference.critic().params();
    const auto critic = agent.critic().params();
    ASSERT_EQ(critic.size(), ref_critic.size());
    for (std::size_t i = 0; i < critic.size(); ++i) {
      ASSERT_EQ(critic[i], ref_critic[i])
          << "critic param " << i << " differs at " << threads << " threads";
    }
    EXPECT_EQ(agent.obs_normalizer().mean(), reference.obs_normalizer().mean());
    EXPECT_EQ(agent.obs_normalizer().count(),
              reference.obs_normalizer().count());
  }
}

/// Every parameter of `agent` must equal `reference` bit for bit.
void expect_identical_agents(const rl::PpoAgent& agent,
                             const rl::PpoAgent& reference,
                             std::size_t threads) {
  const auto ref_actor = reference.actor().params();
  const auto actor = agent.actor().params();
  ASSERT_EQ(actor.size(), ref_actor.size());
  for (std::size_t i = 0; i < actor.size(); ++i) {
    ASSERT_EQ(actor[i], ref_actor[i])
        << "actor param " << i << " differs at " << threads << " threads";
  }
  const auto ref_critic = reference.critic().params();
  const auto critic = agent.critic().params();
  ASSERT_EQ(critic.size(), ref_critic.size());
  for (std::size_t i = 0; i < critic.size(); ++i) {
    ASSERT_EQ(critic[i], ref_critic[i])
        << "critic param " << i << " differs at " << threads << " threads";
  }
  ASSERT_EQ(agent.log_std(), reference.log_std())
      << "log_std differs at " << threads << " threads";
}

rl::PpoAgent train_ppo_shadow_at(util::ThreadPool* pool, bool continuous,
                                 bool activation_cache = true) {
  util::set_log_level(util::LogLevel::kWarn);
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {16, 8};
  cfg.n_steps = 128;
  cfg.minibatch_size = 32;
  cfg.epochs = 3;
  cfg.ent_coef = 0.01;
  std::unique_ptr<rl::Env> env;
  if (continuous) {
    env = std::make_unique<rl::TargetChaseEnv>(16);
  } else {
    env = std::make_unique<rl::ContextualBanditEnv>(2, 3, 8);
  }
  rl::PpoAgent agent{env->observation_size(), env->action_spec(), cfg, 31};
  agent.set_thread_pool(pool);
  agent.set_activation_cache(activation_cache);
  agent.train(*env, 384);
  return agent;
}

TEST(ParallelGradients, PpoDiscreteShadowPathMatchesSequential) {
  const rl::PpoAgent reference =
      train_ppo_shadow_at(nullptr, /*continuous=*/false);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const rl::PpoAgent agent = train_ppo_shadow_at(&pool, false);
    expect_identical_agents(agent, reference, threads);
  }
}

TEST(ParallelGradients, PpoContinuousShadowPathMatchesSequential) {
  // Continuous head also exercises the log_std shadow slots.
  const rl::PpoAgent reference =
      train_ppo_shadow_at(nullptr, /*continuous=*/true);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const rl::PpoAgent agent = train_ppo_shadow_at(&pool, true);
    expect_identical_agents(agent, reference, threads);
  }
}

TEST(ParallelGradients, ActivationCacheIdenticalAcrossThreadCountsAndToggle) {
  // The rollout activation cache must be orthogonal to the shadow-gradient
  // thread count: cached workspaces are read-only during the concurrent
  // per-sample gradient phase, and reuse is bit-identical, so all four
  // combinations of {cache on/off} x {sequential/pooled} train the same
  // parameters.
  const rl::PpoAgent reference = train_ppo_shadow_at(
      nullptr, /*continuous=*/false, /*activation_cache=*/true);
  for (std::size_t threads : kThreadCounts) {
    for (bool cache : {true, false}) {
      util::ThreadPool pool{threads};
      const rl::PpoAgent agent =
          train_ppo_shadow_at(&pool, /*continuous=*/false, cache);
      expect_identical_agents(agent, reference, threads);
    }
  }
}

std::vector<rl::PpoAgent> train_adversary_pair_at(util::ThreadPool* pool) {
  util::set_log_level(util::LogLevel::kWarn);
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::BufferBased bb0;
  abr::BufferBased bb1;
  core::AbrAdversaryEnv env0{m, bb0};
  core::AbrAdversaryEnv env1{m, bb1};
  // One PPO update each (n_steps = 2048 in the adversary config).
  return core::train_adversaries(
      {{&env0, core::abr_adversary_ppo_config(), 1, 7},
       {&env1, core::abr_adversary_ppo_config(), 1, 13}},
      pool);
}

TEST(ParallelAdversaries, ConcurrentTrainingMatchesSequentialTraining) {
  const std::vector<rl::PpoAgent> reference = train_adversary_pair_at(nullptr);
  ASSERT_EQ(reference.size(), 2u);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const std::vector<rl::PpoAgent> agents = train_adversary_pair_at(&pool);
    ASSERT_EQ(agents.size(), 2u);
    for (std::size_t j = 0; j < agents.size(); ++j) {
      expect_identical_agents(agents[j], reference[j], threads);
    }
  }
}

std::vector<trace::Trace> record_abr_batch_at(util::ThreadPool* pool) {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  const abr::VideoManifest m{mp};
  abr::BufferBased bb;
  core::AbrAdversaryEnv probe{m, bb};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {8};
  // Untrained agent: recording only needs a policy, not a good one.
  rl::PpoAgent agent{probe.observation_size(), probe.action_spec(), cfg, 77};
  return core::record_abr_traces(
      agent, m,
      []() -> std::unique_ptr<abr::AbrProtocol> {
        return std::make_unique<abr::BufferBased>();
      },
      core::AbrAdversaryEnv::Params{}, /*count=*/6, /*seed=*/123,
      /*deterministic=*/false, pool);
}

TEST(ParallelRecorders, AbrTraceCorpusIdenticalAcrossThreadCounts) {
  const auto reference = record_abr_batch_at(nullptr);
  ASSERT_EQ(reference.size(), 6u);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const auto traces = record_abr_batch_at(&pool);
    ASSERT_EQ(traces.size(), reference.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      ASSERT_EQ(traces[i].size(), reference[i].size());
      for (std::size_t s = 0; s < traces[i].size(); ++s) {
        EXPECT_EQ(traces[i].segments()[s].bandwidth_mbps,
                  reference[i].segments()[s].bandwidth_mbps)
            << "trace " << i << " segment " << s << " at " << threads
            << " threads";
      }
    }
  }
}

std::vector<core::CcEpisodeRecord> record_cc_batch_at(util::ThreadPool* pool) {
  core::CcAdversaryEnv::Params params;
  params.episode_duration_s = 0.6;  // 20 epochs keeps the packet sim cheap
  core::CcAdversaryEnv probe{params};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {4};
  rl::PpoAgent agent{probe.observation_size(), probe.action_spec(), cfg, 55};
  return core::record_cc_episodes(agent, params, /*make_sender=*/nullptr,
                                  /*count=*/4, /*seed=*/321,
                                  /*deterministic=*/false, pool);
}

TEST(ParallelRecorders, CcEpisodeBatchIdenticalAcrossThreadCounts) {
  const auto reference = record_cc_batch_at(nullptr);
  ASSERT_EQ(reference.size(), 4u);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const auto records = record_cc_batch_at(&pool);
    ASSERT_EQ(records.size(), reference.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].bandwidth_mbps, reference[i].bandwidth_mbps);
      EXPECT_EQ(records[i].raw_bandwidth, reference[i].raw_bandwidth);
      EXPECT_EQ(records[i].throughput_mbps, reference[i].throughput_mbps);
      EXPECT_EQ(records[i].utilization, reference[i].utilization);
      EXPECT_EQ(records[i].bbr_mode, reference[i].bbr_mode);
      EXPECT_EQ(records[i].mean_utilization, reference[i].mean_utilization)
          << "episode " << i << " at " << threads << " threads";
    }
  }
}

std::vector<core::FairnessEpisodeRecord> record_fairness_batch_at(
    util::ThreadPool* pool) {
  // Late-join draws each episode's arrival from its own stream, so the gate
  // also covers per-episode randomness beyond the policy's samples.
  core::FairnessAdversaryEnv::Params params;
  params.scenario = core::FairnessAdversaryEnv::Scenario::kLateJoin;
  params.episode_duration_s = 0.9;  // 30 epochs keeps the packet sim cheap
  params.stagger_s = 0.1;
  params.late_join_min_s = 0.1;
  params.late_join_max_s = 0.3;
  const core::FairnessAdversaryEnv probe{params, bbr_cubic_mix()};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {4};
  rl::PpoAgent agent{probe.observation_size(), probe.action_spec(), cfg, 65};
  return core::record_fairness_episodes(agent, params, bbr_cubic_mix(),
                                        /*count=*/4, /*seed=*/654,
                                        /*deterministic=*/false, pool);
}

TEST(ParallelRecorders, FairnessEpisodeBatchIdenticalAcrossThreadCounts) {
  const auto reference = record_fairness_batch_at(nullptr);
  ASSERT_EQ(reference.size(), 4u);
  ASSERT_FALSE(reference[0].jain.empty());
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool pool{threads};
    const auto records = record_fairness_batch_at(&pool);
    ASSERT_EQ(records.size(), reference.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(records[i].bandwidth_mbps, reference[i].bandwidth_mbps);
      EXPECT_EQ(records[i].latency_ms, reference[i].latency_ms);
      EXPECT_EQ(records[i].loss_rate, reference[i].loss_rate);
      EXPECT_EQ(records[i].flow_throughput_mbps,
                reference[i].flow_throughput_mbps);
      EXPECT_EQ(records[i].jain, reference[i].jain);
      EXPECT_EQ(records[i].victim_utilization,
                reference[i].victim_utilization);
      EXPECT_EQ(records[i].late_join_time_s, reference[i].late_join_time_s);
      EXPECT_EQ(records[i].mean_jain, reference[i].mean_jain)
          << "episode " << i << " at " << threads << " threads";
    }
  }
}

TEST(VecPpo, LearnsContextualBandit) {
  util::ThreadPool pool{4};
  rl::VecEnv venv{[](std::size_t) { return std::make_unique<rl::ContextualBanditEnv>(2, 2, 16); },
                  /*n=*/4, /*seed=*/3, &pool};
  rl::PpoConfig cfg;
  cfg.hidden_sizes = {16};
  cfg.n_steps = 256;
  cfg.minibatch_size = 64;
  cfg.epochs = 4;
  cfg.ent_coef = 0.01;
  util::set_log_level(util::LogLevel::kWarn);
  rl::PpoAgent agent{venv.observation_size(), venv.action_spec(), cfg, 9};
  agent.train(venv, 12000);

  // The greedy policy should pick the rewarded arm in both contexts.
  rl::ContextualBanditEnv probe{2, 2, 16};
  util::Rng rng{1};
  std::size_t correct = 0;
  const std::size_t trials = 32;
  for (std::size_t k = 0; k < trials; ++k) {
    const rl::Vec obs = probe.reset(rng);
    std::size_t context = 0;
    for (std::size_t i = 0; i < obs.size(); ++i) {
      if (obs[i] > 0.5) context = i;
    }
    const rl::Vec action = agent.act_deterministic(obs);
    if (static_cast<std::size_t>(action[0]) == probe.correct_arm(context)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, trials - trials / 8);
}

}  // namespace
