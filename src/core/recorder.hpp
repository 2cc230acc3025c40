// Rolling trained adversaries out against their targets and recording what
// happened — the bridge from an adversary policy to the paper's artifacts:
//  * reusable adversarial traces (replayed against every protocol, Fig. 1-2);
//  * per-chunk ABR episode timelines (Fig. 3);
//  * per-epoch CC timelines with both physical conditions and the raw
//    pre-clipping policy actions (Fig. 5 and Fig. 6).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/fairness_adversary.hpp"
#include "rl/ppo.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace netadv::core {

/// Run the adversary online against the env's target `count` times and
/// record each episode's bandwidth sequence as a replayable Trace (one
/// segment per chunk). Stochastic actions give a diverse corpus, exactly how
/// the paper's 200 traces were produced; deterministic gives the single
/// noise-free trace.
std::vector<trace::Trace> record_abr_traces(rl::PpoAgent& agent,
                                            AbrAdversaryEnv& env,
                                            std::size_t count, util::Rng& rng,
                                            bool deterministic = false);

/// Builds a fresh target protocol per recording task; must be thread-safe to
/// call (it only constructs new objects).
using ProtocolFactory = std::function<std::unique_ptr<abr::AbrProtocol>()>;

/// Batch corpus generation: record `count` adversarial traces across `pool`
/// (sequentially when null), one fresh (cloned agent, fresh protocol, fresh
/// env) triple per task.
///
/// Determinism contract: per-episode RNG streams are forked from `seed` on
/// the calling thread in episode order before dispatch, each task touches
/// only its own clone/env/stream, and results land in the slot of their own
/// episode index — so the corpus is bit-identical at every thread count,
/// including pool == nullptr.
std::vector<trace::Trace> record_abr_traces(
    const rl::PpoAgent& agent, const abr::VideoManifest& manifest,
    const ProtocolFactory& make_protocol, const AbrAdversaryEnv::Params& params,
    std::size_t count, std::uint64_t seed, bool deterministic = false,
    util::ThreadPool* pool = nullptr);

/// Per-chunk timeline of one adversarial episode (Figure 3's panels).
struct AbrEpisodeRecord {
  std::vector<double> bandwidth_mbps;   ///< adversary's actions
  std::vector<double> bitrate_kbps;     ///< target's selections
  std::vector<double> buffer_s;         ///< client buffer after each chunk
  std::vector<double> rebuffer_s;
  double total_qoe = 0.0;
  trace::Trace trace;                   ///< the same episode as a Trace
};

AbrEpisodeRecord record_abr_episode(rl::PpoAgent& agent, AbrAdversaryEnv& env,
                                    util::Rng& rng,
                                    bool deterministic = true);

/// Per-epoch timeline of one CC adversarial episode.
struct CcEpisodeRecord {
  // Physical link conditions applied per epoch.
  std::vector<double> bandwidth_mbps;
  std::vector<double> latency_ms;
  std::vector<double> loss_rate;
  // Raw policy outputs before clipping (Figure 6 plots these).
  std::vector<double> raw_bandwidth;
  std::vector<double> raw_latency;
  std::vector<double> raw_loss;
  // Target's observed behaviour.
  std::vector<double> throughput_mbps;
  std::vector<double> utilization;
  std::vector<double> queue_delay_s;
  /// BBR state per epoch (cast of BbrSender::Mode; -1 if the target is not
  /// BBR) — lets Figure 6 align adversary actions with probing phases.
  std::vector<int> bbr_mode;
  double mean_utilization = 0.0;
  trace::Trace trace;  ///< per-epoch segments, replayable
};

CcEpisodeRecord record_cc_episode(rl::PpoAgent& agent, CcAdversaryEnv& env,
                                  util::Rng& rng, bool deterministic = true);

/// Batch variant of record_cc_episode: `count` episodes across `pool`
/// (sequentially when null), one fresh (cloned agent, fresh env with a fresh
/// target sender) pair per task. Same determinism contract as the batch
/// record_abr_traces: streams forked from `seed` in episode order on the
/// caller, results reduced by episode index, bit-identical at every thread
/// count. `make_sender` may be null for the env's default target (BBR).
std::vector<CcEpisodeRecord> record_cc_episodes(
    const rl::PpoAgent& agent, const CcAdversaryEnv::Params& params,
    const CcAdversaryEnv::SenderFactory& make_sender, std::size_t count,
    std::uint64_t seed, bool deterministic = false,
    util::ThreadPool* pool = nullptr);

/// Per-epoch timeline of one fairness adversarial episode (a flow mix on
/// the shared bottleneck, optionally with a cross-traffic accomplice or a
/// late-joining flow — whichever scenario the env encodes).
struct FairnessEpisodeRecord {
  // Physical link conditions applied per epoch.
  std::vector<double> bandwidth_mbps;
  std::vector<double> latency_ms;
  std::vector<double> loss_rate;
  /// Per-epoch mix-flow throughputs: flow_throughput_mbps[f][epoch]
  /// (accomplice traffic excluded — it's the attack, not the subject).
  std::vector<std::vector<double>> flow_throughput_mbps;
  std::vector<double> jain;                 ///< per-epoch mix Jain index
  std::vector<double> victim_utilization;   ///< mix flow 0's capacity share
  std::vector<double> aggregate_utilization;
  double mean_jain = 1.0;
  double mean_victim_utilization = 0.0;
  double mean_aggregate_utilization = 0.0;
  double late_join_time_s = 0.0;  ///< kLateJoin: this episode's drawn arrival
  trace::Trace trace;             ///< per-epoch segments, replayable
};

/// Record `count` fairness episodes across `pool` (sequentially when null),
/// one fresh (cloned agent, fresh env with fresh mix senders) pair per task.
/// Same determinism contract as record_cc_episodes: streams forked from
/// `seed` in episode order on the caller, results reduced by episode index,
/// bit-identical at every thread count.
std::vector<FairnessEpisodeRecord> record_fairness_episodes(
    const rl::PpoAgent& agent, const FairnessAdversaryEnv::Params& params,
    std::vector<FairnessAdversaryEnv::SenderFactory> factories,
    std::size_t count, std::uint64_t seed, bool deterministic = false,
    util::ThreadPool* pool = nullptr);

/// Replay a recorded CC trace (fixed conditions per segment) against a
/// sender, ignoring the adversary: used to check that recorded traces
/// reproduce the damage without re-running the adversary (Section 2.1).
struct CcReplayResult {
  double mean_utilization = 0.0;
  double mean_throughput_mbps = 0.0;
  std::vector<double> throughput_mbps;  ///< per segment
};

CcReplayResult replay_cc_trace(cc::CcSender& sender, const trace::Trace& t,
                               const cc::LinkSim::Params& link_params,
                               std::uint64_t seed);

/// Builds a fresh sender per replay task; must be thread-safe to call (it
/// only constructs new objects).
using SenderFactory = std::function<std::unique_ptr<cc::CcSender>()>;

/// Replay a whole trace corpus across `pool` (sequentially when null), one
/// fresh sender per trace. Per-trace link seeds are forked from `seed` in
/// trace order before dispatch, so the result vector is identical at every
/// thread count.
std::vector<CcReplayResult> replay_cc_traces(
    const SenderFactory& make_sender, const std::vector<trace::Trace>& traces,
    const cc::LinkSim::Params& link_params, std::uint64_t seed,
    util::ThreadPool* pool = nullptr);

/// Replay of one recorded trace against a whole flow mix on a shared
/// bottleneck — the fairness analogue of CcReplayResult. Flow starts are
/// staggered by `stagger_s` like the env's kFairness scenario.
struct FairnessReplayResult {
  double mean_jain = 1.0;
  double mean_victim_utilization = 0.0;
  double mean_aggregate_utilization = 0.0;
  std::vector<double> mean_flow_throughput_mbps;  ///< per flow, episode mean
  std::vector<double> jain;                       ///< per segment
};

/// Replay a whole trace corpus against the mix, one fresh set of senders
/// per trace; same determinism contract as replay_cc_traces.
std::vector<FairnessReplayResult> replay_fairness_traces(
    const std::vector<SenderFactory>& mix,
    const std::vector<trace::Trace>& traces,
    const cc::LinkSim::Params& link_params, double stagger_s,
    std::uint64_t seed, util::ThreadPool* pool = nullptr);

}  // namespace netadv::core
