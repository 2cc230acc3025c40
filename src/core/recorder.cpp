#include "core/recorder.hpp"

#include "cc/bbr.hpp"

#include <algorithm>
#include <stdexcept>

namespace netadv::core {

namespace {

/// The one batch driver behind every corpus recorder and replay: draw one
/// seed per slot from `seed` on the caller, in slot order, then run
/// task(i, seed_i) across `pool` (in order on the caller when null) with
/// the result landing in slot i. Rng{seed_i} is exactly
/// Rng{seed}.fork_streams(count)[i], so recorders seed their episode stream
/// with it and replays seed their link with it; either way slot i sees the
/// same randomness whichever thread runs it, and the batch is bit-identical
/// at every thread count.
template <typename Task>
auto for_each_slot(std::size_t count, std::uint64_t seed,
                   util::ThreadPool* pool, const Task& task) {
  util::Rng master{seed};
  std::vector<std::uint64_t> seeds(count);
  for (auto& s : seeds) s = master();
  return util::parallel_map(
      pool, count, [&](std::size_t i) { return task(i, seeds[i]); });
}

/// Drive one episode to its end; `after_step(raw_action)` observes the env
/// after every step.
template <typename AfterStep>
void roll_episode(rl::PpoAgent& agent, rl::Env& env, util::Rng& rng,
                  bool deterministic, const AfterStep& after_step) {
  rl::Vec obs = env.reset(rng);
  while (true) {
    const rl::Vec action = deterministic ? agent.act_deterministic(obs)
                                         : agent.act_stochastic(obs, rng);
    rl::StepResult result = env.step(action, rng);
    after_step(action);
    if (result.done) break;
    obs = std::move(result.observation);
  }
}

/// The finished ABR episode as a replayable Trace, one segment per chunk.
trace::Trace episode_trace(const AbrAdversaryEnv& env) {
  trace::Trace t;
  for (double bw : env.episode_bandwidths()) {
    t.append({env.chunk_duration_s(), bw, 80.0, 0.0});
  }
  return t;
}

FairnessEpisodeRecord record_fairness_episode(rl::PpoAgent& agent,
                                              FairnessAdversaryEnv& env,
                                              util::Rng& rng,
                                              bool deterministic) {
  FairnessEpisodeRecord record;
  const rl::ActionSpec spec = env.action_spec();
  record.flow_throughput_mbps.resize(env.mix_flow_count());
  double jain_sum = 0.0;
  double victim_sum = 0.0;
  double util_sum = 0.0;
  std::size_t epochs = 0;
  roll_episode(agent, env, rng, deterministic, [&](const rl::Vec& raw) {
    const rl::Vec physical = spec.to_physical(raw);
    record.bandwidth_mbps.push_back(physical[0]);
    record.latency_ms.push_back(physical[1]);
    record.loss_rate.push_back(physical[2]);

    const cc::MultiFlowRunner::Interval& interval = env.last_interval();
    for (std::size_t f = 0; f < env.mix_flow_count(); ++f) {
      record.flow_throughput_mbps[f].push_back(
          f < interval.flows.size()
              ? interval.flows[f].throughput_mbps(interval.duration_s)
              : 0.0);
    }
    record.jain.push_back(env.last_jain());
    record.victim_utilization.push_back(env.last_victim_utilization());
    record.aggregate_utilization.push_back(interval.aggregate_utilization());
    jain_sum += env.last_jain();
    victim_sum += env.last_victim_utilization();
    util_sum += interval.aggregate_utilization();
    ++epochs;

    record.trace.append({env.params().epoch_s, physical[0], physical[1],
                         physical[2]});
  });
  record.late_join_time_s = env.late_join_time_s();  // drawn at reset
  if (epochs > 0) {
    const auto n = static_cast<double>(epochs);
    record.mean_jain = jain_sum / n;
    record.mean_victim_utilization = victim_sum / n;
    record.mean_aggregate_utilization = util_sum / n;
  }
  return record;
}

FairnessReplayResult replay_fairness_trace(
    const std::vector<SenderFactory>& mix, const trace::Trace& t,
    const cc::LinkSim::Params& link_params, double stagger_s,
    std::uint64_t seed) {
  if (t.empty()) {
    throw std::invalid_argument{"replay_fairness_trace: empty trace"};
  }
  if (mix.size() < 2) {
    throw std::invalid_argument{"replay_fairness_trace: need >= 2 flows"};
  }
  std::vector<std::unique_ptr<cc::CcSender>> senders;
  std::vector<cc::CcSender*> raw;
  std::vector<double> starts;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    senders.push_back(mix[i]());
    if (!senders.back()) {
      throw std::invalid_argument{
          "replay_fairness_trace: factory returned null"};
    }
    raw.push_back(senders.back().get());
    starts.push_back(static_cast<double>(i) * stagger_s);
  }
  cc::MultiFlowRunner runner{raw, link_params, seed, starts};

  FairnessReplayResult result;
  result.mean_flow_throughput_mbps.assign(mix.size(), 0.0);
  double now = 0.0;
  double jain_sum = 0.0;
  double victim_sum = 0.0;
  double util_sum = 0.0;
  for (const auto& segment : t.segments()) {
    runner.set_conditions({segment.bandwidth_mbps, segment.latency_ms,
                           segment.loss_rate});
    now += segment.duration_s;
    runner.run_until(now);
    const cc::MultiFlowRunner::Interval interval = runner.collect();
    const double jain = cc::jain_fairness_index(interval.throughputs_mbps());
    result.jain.push_back(jain);
    jain_sum += jain;
    victim_sum += interval.capacity_bits > 0.0 && !interval.flows.empty()
                      ? std::min(1.0, interval.flows[0].delivered_bits /
                                          interval.capacity_bits)
                      : 0.0;
    util_sum += interval.aggregate_utilization();
    for (std::size_t f = 0; f < mix.size() && f < interval.flows.size();
         ++f) {
      result.mean_flow_throughput_mbps[f] +=
          interval.flows[f].throughput_mbps(interval.duration_s);
    }
  }
  const auto n = static_cast<double>(t.size());
  result.mean_jain = jain_sum / n;
  result.mean_victim_utilization = victim_sum / n;
  result.mean_aggregate_utilization = util_sum / n;
  for (double& v : result.mean_flow_throughput_mbps) v /= n;
  return result;
}

}  // namespace

std::vector<trace::Trace> record_abr_traces(rl::PpoAgent& agent,
                                            AbrAdversaryEnv& env,
                                            std::size_t count, util::Rng& rng,
                                            bool deterministic) {
  std::vector<trace::Trace> traces;
  traces.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    roll_episode(agent, env, rng, deterministic, [](const rl::Vec&) {});
    traces.push_back(episode_trace(env));
  }
  return traces;
}

std::vector<trace::Trace> record_abr_traces(
    const rl::PpoAgent& agent, const abr::VideoManifest& manifest,
    const ProtocolFactory& make_protocol, const AbrAdversaryEnv::Params& params,
    std::size_t count, std::uint64_t seed, bool deterministic,
    util::ThreadPool* pool) {
  return for_each_slot(count, seed, pool, [&](std::size_t, std::uint64_t s) {
    const std::unique_ptr<abr::AbrProtocol> protocol = make_protocol();
    if (!protocol) {
      throw std::invalid_argument{"record_abr_traces: factory returned null"};
    }
    AbrAdversaryEnv env{manifest, *protocol, params};
    rl::PpoAgent clone = agent;
    util::Rng rng{s};
    roll_episode(clone, env, rng, deterministic, [](const rl::Vec&) {});
    return episode_trace(env);
  });
}

AbrEpisodeRecord record_abr_episode(rl::PpoAgent& agent, AbrAdversaryEnv& env,
                                    util::Rng& rng, bool deterministic) {
  AbrEpisodeRecord record;
  double qoe = 0.0;
  roll_episode(agent, env, rng, deterministic, [&](const rl::Vec&) {
    qoe += env.last_reward().protocol;  // per-window protocol QoE (diagnostic)
  });
  record.bandwidth_mbps = env.episode_bandwidths();
  for (std::size_t q : env.episode_qualities()) {
    record.bitrate_kbps.push_back(env.manifest().bitrate_kbps(q));
  }
  record.buffer_s = env.episode_buffers();
  record.rebuffer_s = env.episode_rebuffers();

  // Exact episode QoE from the recorded choices.
  std::vector<double> bitrates_mbps;
  for (double kbps : record.bitrate_kbps) bitrates_mbps.push_back(kbps / 1000.0);
  record.total_qoe =
      abr::total_qoe(bitrates_mbps, record.rebuffer_s, env.params().qoe);
  record.trace = episode_trace(env);
  return record;
}

CcEpisodeRecord record_cc_episode(rl::PpoAgent& agent, CcAdversaryEnv& env,
                                  util::Rng& rng, bool deterministic) {
  CcEpisodeRecord record;
  const rl::ActionSpec spec = env.action_spec();
  double util_sum = 0.0;
  std::size_t epochs = 0;
  roll_episode(agent, env, rng, deterministic, [&](const rl::Vec& raw) {
    const rl::Vec physical = spec.to_physical(raw);
    record.raw_bandwidth.push_back(raw[0]);
    record.raw_latency.push_back(raw[1]);
    record.raw_loss.push_back(raw[2]);
    record.bandwidth_mbps.push_back(physical[0]);
    record.latency_ms.push_back(physical[1]);
    record.loss_rate.push_back(physical[2]);

    if (const auto* bbr = dynamic_cast<const cc::BbrSender*>(env.sender())) {
      record.bbr_mode.push_back(static_cast<int>(bbr->mode()));
    } else {
      record.bbr_mode.push_back(-1);
    }
    const cc::IntervalStats& stats = env.last_interval();
    record.throughput_mbps.push_back(stats.throughput_mbps());
    record.utilization.push_back(stats.utilization());
    record.queue_delay_s.push_back(stats.mean_queue_delay_s);
    util_sum += stats.utilization();
    ++epochs;

    record.trace.append({env.params().epoch_s, physical[0], physical[1],
                         physical[2]});
  });
  record.mean_utilization = epochs > 0 ? util_sum / static_cast<double>(epochs)
                                       : 0.0;
  return record;
}

std::vector<CcEpisodeRecord> record_cc_episodes(
    const rl::PpoAgent& agent, const CcAdversaryEnv::Params& params,
    const CcAdversaryEnv::SenderFactory& make_sender, std::size_t count,
    std::uint64_t seed, bool deterministic, util::ThreadPool* pool) {
  return for_each_slot(count, seed, pool, [&](std::size_t, std::uint64_t s) {
    CcAdversaryEnv env{params, make_sender};
    rl::PpoAgent clone = agent;
    util::Rng rng{s};
    return record_cc_episode(clone, env, rng, deterministic);
  });
}

std::vector<FairnessEpisodeRecord> record_fairness_episodes(
    const rl::PpoAgent& agent, const FairnessAdversaryEnv::Params& params,
    std::vector<FairnessAdversaryEnv::SenderFactory> factories,
    std::size_t count, std::uint64_t seed, bool deterministic,
    util::ThreadPool* pool) {
  return for_each_slot(count, seed, pool, [&](std::size_t, std::uint64_t s) {
    FairnessAdversaryEnv env{params, factories};
    rl::PpoAgent clone = agent;
    util::Rng rng{s};
    return record_fairness_episode(clone, env, rng, deterministic);
  });
}

CcReplayResult replay_cc_trace(cc::CcSender& sender, const trace::Trace& t,
                               const cc::LinkSim::Params& link_params,
                               std::uint64_t seed) {
  if (t.empty()) throw std::invalid_argument{"replay_cc_trace: empty trace"};
  cc::CcRunner runner{sender, link_params, seed};
  CcReplayResult result;
  double now = 0.0;
  double util_sum = 0.0;
  double tput_sum = 0.0;
  for (const auto& segment : t.segments()) {
    runner.set_conditions({segment.bandwidth_mbps, segment.latency_ms,
                           segment.loss_rate});
    now += segment.duration_s;
    runner.run_until(now);
    const cc::IntervalStats stats = runner.collect();
    result.throughput_mbps.push_back(stats.throughput_mbps());
    util_sum += stats.utilization();
    tput_sum += stats.throughput_mbps();
  }
  const auto n = static_cast<double>(t.size());
  result.mean_utilization = util_sum / n;
  result.mean_throughput_mbps = tput_sum / n;
  return result;
}

std::vector<CcReplayResult> replay_cc_traces(
    const SenderFactory& make_sender, const std::vector<trace::Trace>& traces,
    const cc::LinkSim::Params& link_params, std::uint64_t seed,
    util::ThreadPool* pool) {
  return for_each_slot(
      traces.size(), seed, pool, [&](std::size_t i, std::uint64_t link_seed) {
        const std::unique_ptr<cc::CcSender> sender = make_sender();
        if (!sender) {
          throw std::invalid_argument{
              "replay_cc_traces: factory returned null"};
        }
        return replay_cc_trace(*sender, traces[i], link_params, link_seed);
      });
}

std::vector<FairnessReplayResult> replay_fairness_traces(
    const std::vector<SenderFactory>& mix,
    const std::vector<trace::Trace>& traces,
    const cc::LinkSim::Params& link_params, double stagger_s,
    std::uint64_t seed, util::ThreadPool* pool) {
  return for_each_slot(
      traces.size(), seed, pool, [&](std::size_t i, std::uint64_t link_seed) {
        return replay_fairness_trace(mix, traces[i], link_params, stagger_s,
                                     link_seed);
      });
}

}  // namespace netadv::core
