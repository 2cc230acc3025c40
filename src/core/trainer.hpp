// The Section 2.3 robustification pipeline:
//   (1) train the protocol of interest,
//   (2) train an adversary against it,
//   (3) use the trained adversary to generate traces,
//   (4) continue the protocol's training with the adversarial traces
//       added to its training dataset.
// Plus the plain adversary-training entry point used by every experiment
// (the paper's Section 3/4 adversaries).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "abr/pensieve.hpp"
#include "core/abr_adversary.hpp"
#include "core/registry.hpp"
#include "rl/ppo.hpp"
#include "trace/trace.hpp"
#include "util/thread_pool.hpp"

namespace netadv::core {

/// The paper's per-domain PPO setups behind one seam: two hidden layers of
/// 32/16 for ABR adversaries (Section 3), one hidden layer of 4 neurons for
/// CC adversaries (Section 4). kAny is not a trainable domain and throws.
rl::PpoConfig adversary_ppo_config(TargetDomain domain);

/// PPO setup for the ABR adversary: adversary_ppo_config(kAbr).
rl::PpoConfig abr_adversary_ppo_config();

/// PPO setup for the CC adversary: adversary_ppo_config(kCc).
rl::PpoConfig cc_adversary_ppo_config();

/// Train a fresh PPO adversary against any rl::Env for `steps` environment
/// steps — the single generic trainer both domains share (the paper's
/// protocol-agnostic recipe: only `config` differs between ABR and CC).
/// A non-null `pool` parallelizes the gradient step via the agent's
/// shadow-buffer path; trained parameters are bit-identical either way.
rl::PpoAgent train_adversary(rl::Env& env, const rl::PpoConfig& config,
                             std::size_t steps, std::uint64_t seed,
                             const rl::TrainCallback& callback = nullptr,
                             util::ThreadPool* pool = nullptr);

/// The load-side twin of train_adversary: construct an agent with `env`'s
/// topology under `config` and restore `checkpoint` into it. Every path
/// that rolls a previously trained adversary out (record, replay, eval)
/// shares this one seam instead of hand-wiring the construct+load pair.
/// Throws std::runtime_error on a missing/mismatched checkpoint.
rl::PpoAgent restore_adversary(const rl::Env& env, const rl::PpoConfig& config,
                               const std::string& checkpoint);

/// One independent adversary-training job: its own env (never shared between
/// jobs — envs are stateful), its own PPO config, and its own seed.
struct AdversaryJob {
  rl::Env* env = nullptr;
  rl::PpoConfig config{};
  std::size_t steps = 0;
  std::uint64_t seed = 0;
};

/// Train independent adversaries concurrently across `pool` (sequentially
/// when null), one job per slot of the returned vector.
///
/// Determinism contract: each job's training is a pure function of its
/// (env, config, steps, seed) — agents, envs, and RNG state are all
/// job-private, and results land in the slot of their own job index — so the
/// returned agents are bit-identical at every thread count, and identical to
/// running the jobs back-to-back through train_adversary. While a job runs
/// on the pool, its own gradient step degrades to the sequential path
/// (nested parallel_for runs inline), which changes nothing: the
/// shadow-buffer path is bit-identical to sequential by construction.
std::vector<rl::PpoAgent> train_adversaries(
    const std::vector<AdversaryJob>& jobs, util::ThreadPool* pool = nullptr);

/// Configuration of the full robustification run (Figure 4's treatment).
struct RobustifyConfig {
  std::size_t protocol_steps = 200000;     ///< total Pensieve budget
  double inject_fraction = 0.9;            ///< pause point (0.9 or 0.7)
  std::size_t adversary_steps = 60000;     ///< adversary training budget
  std::size_t adversarial_traces = 100;    ///< traces to generate and add
  std::uint64_t seed = 1;
  AbrAdversaryEnv::Params adversary_params{};
  /// Parallelizes the gradient steps and the adversarial-trace generation;
  /// the result is bit-identical at every pool size (null = sequential).
  util::ThreadPool* pool = nullptr;
};

struct RobustifyResult {
  rl::TrainReport phase1;
  rl::TrainReport adversary_report;
  rl::TrainReport phase2;
  std::vector<trace::Trace> adversarial_traces;
};

/// Run the pipeline on a Pensieve agent training in `env`. The env's corpus
/// is temporarily augmented with the generated adversarial traces for the
/// final (1 - inject_fraction) of the budget and left augmented on return.
/// With inject_fraction >= 1 this is a plain (baseline) training run.
RobustifyResult robustify_pensieve(rl::PpoAgent& pensieve,
                                   abr::PensieveEnv& env,
                                   const RobustifyConfig& config);

}  // namespace netadv::core
