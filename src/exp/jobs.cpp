#include "exp/jobs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abr/optimal.hpp"
#include "abr/pensieve.hpp"
#include "abr/runner.hpp"
#include "core/abr_adversary.hpp"
#include "core/cc_adversary.hpp"
#include "core/cem_adversary.hpp"
#include "core/checkpoint_store.hpp"
#include "core/eval_matrix.hpp"
#include "core/fairness_adversary.hpp"
#include "core/recorder.hpp"
#include "core/registry.hpp"
#include "core/trainer.hpp"
#include "rl/checkpoint.hpp"
#include "serve/engine.hpp"
#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/stats.hpp"

namespace netadv::exp {

namespace {

[[noreturn]] void job_fail(const JobContext& ctx, const std::string& what) {
  throw std::runtime_error{"job '" + ctx.job->id + "' (" + ctx.job->kind +
                           "): " + what};
}

std::size_t size_param(const JobContext& ctx, const std::string& key,
                       std::size_t fallback) {
  const std::string* value = ctx.job->find(key);
  if (value == nullptr) return fallback;
  if (const auto parsed = util::parse_u64(*value)) {
    return static_cast<std::size_t>(*parsed);
  }
  job_fail(ctx, key + " is not a non-negative integer: '" + *value + "'");
}

double double_param(const JobContext& ctx, const std::string& key,
                    double fallback) {
  const std::string* value = ctx.job->find(key);
  if (value == nullptr) return fallback;
  if (const auto parsed = util::parse_finite(*value)) return *parsed;
  job_fail(ctx, key + " is not a finite number: '" + *value + "'");
}

/// Corpus sizes scale down with NETADV_SCALE like bench_common's trace
/// counts (full size from scale 0.25 up, floor of 2 below).
std::size_t scaled_count(std::size_t nominal) {
  const double scaled =
      static_cast<double>(nominal) * std::min(1.0, util::bench_scale() * 4.0);
  return std::max<std::size_t>(static_cast<std::size_t>(scaled), 2);
}

/// The deterministic-size manifest every adversary experiment in this repo
/// uses (bench_common and the fig benches pin size_variation = 0).
abr::VideoManifest job_manifest() {
  abr::VideoManifest::Params mp;
  mp.size_variation = 0.0;
  return abr::VideoManifest{mp};
}

/// `domain = abr | cc` selects which target registry and adversary stack a
/// train/record/replay job runs on.
core::TargetDomain domain_param(const JobContext& ctx) {
  try {
    return core::parse_domain(ctx.job->value_or("domain", "abr"));
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
}

/// Root of the campaign's checkpoint store: `store_dir =` when given, else
/// `<out_dir>/store`. Publishing jobs and target_args share this one
/// resolution, so `protocol = pensieve@champion` inside a campaign targets
/// the population *this campaign's* promote jobs fill by default.
std::string store_root(const JobContext& ctx) {
  return ctx.job->value_or("store_dir", ctx.out_dir + "/store");
}

/// Registry args for target factories: the job's own params, with
/// `checkpoint_from = <job id>` resolved to that dependency's
/// _pensieve.ckpt (so a robustified policy is targetable by name), and the
/// campaign's store root wired in so store refs (`pensieve@<name>[@vK]`)
/// resolve against store_root(ctx).
core::FactoryArgs target_args(const JobContext& ctx) {
  core::FactoryArgs args;
  args.bind(
      [job = ctx.job](const std::string& key) { return job->find(key); });
  args.set("store", store_root(ctx));
  if (const std::string* from = ctx.job->find("checkpoint_from")) {
    args.set("checkpoint", ctx.input_ending_with(*from, "_pensieve.ckpt"));
  }
  return args;
}

/// Optional post-training publication: `store_name = <population>` copies a
/// job's checkpoint into the campaign store. `store_version =` is required
/// and explicit — versions are immutable provenance, not an auto-counter,
/// so a resumed or double-executed job republishes the same slot and the
/// store's idempotent put makes that a no-op. Returns the stored path.
std::string publish_checkpoint(const JobContext& ctx, const std::string& name,
                               const std::string& kind,
                               const std::string& source) {
  const std::string* version = ctx.job->find("store_version");
  if (version == nullptr) {
    job_fail(ctx, "store_name needs store_version = <integer> (explicit so "
                  "re-runs republish the same immutable slot)");
  }
  const auto slot = util::parse_u64(*version);
  if (!slot) {
    job_fail(ctx, "store_version is not a non-negative integer: '" +
                      *version + "'");
  }
  try {
    core::CheckpointStore store{store_root(ctx)};
    return store
        .put(name, *slot, kind, source,
             ctx.campaign->name + "/" + ctx.job->id)
        .path;
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
}

/// Byte-verbatim file copy — promote republishes a winning checkpoint
/// without perturbing a single byte (the store's identity contract).
void copy_bytes(const std::string& from, const std::string& to) {
  std::ifstream in{from, std::ios::binary};
  if (!in) throw std::runtime_error{"cannot open " + from};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::ofstream out{to, std::ios::binary | std::ios::trunc};
  out << buffer.str();
  if (!out) throw std::runtime_error{"cannot write " + to};
}

/// Resolve `protocol =` against a target registry exactly once, up front: a
/// bad name (or a missing pensieve checkpoint) fails the job here, before
/// any artifact is written, and the returned factory is handed to every
/// batch API that needs fresh targets.
template <typename T>
std::function<std::unique_ptr<T>()> target_factory(
    const JobContext& ctx, const core::Registry<T>& registry) {
  try {
    return registry.factory(ctx.job->value_or("protocol", ""),
                            target_args(ctx));
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
}

/// CC and fairness episode length: `duration = <seconds>` shortens Figure
/// 5's 30-s episodes (1000 epochs) — campaigns and tests use it to bound
/// work.
double duration_param(const JobContext& ctx, double fallback) {
  const double duration = double_param(ctx, "duration", fallback);
  if (duration <= 0.0) {
    job_fail(ctx, "duration must be a positive number of episode seconds");
  }
  return duration;
}

/// A job note, printf-formatted.
[[gnu::format(printf, 1, 2)]] std::string note_printf(const char* format,
                                                      ...) {
  char note[160];
  va_list args;
  va_start(args, format);
  std::vsnprintf(note, sizeof note, format, args);
  va_end(args);
  return note;
}

/// A per-trace (or per-episode) CSV: `header`, then one line per row, each
/// prefixed with its index.
struct Table {
  std::vector<std::string> header;
  std::vector<std::vector<double>> rows;
};

void write_table(const Table& table, const std::string& path) {
  util::CsvWriter writer{path};
  writer.write_row(table.header);
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    std::vector<double> row{static_cast<double>(i)};
    row.insert(row.end(), table.rows[i].begin(), table.rows[i].end());
    writer.write_row(row);
  }
}

/// The per-flow columns fairness record summaries and multi-flow replays
/// share.
std::vector<std::string> flow_header(const std::string& index,
                                     std::size_t flow_count) {
  std::vector<std::string> header{index};
  for (std::size_t f = 0; f < flow_count; ++f) {
    header.push_back("flow" + std::to_string(f) + "_mbps");
  }
  header.insert(header.end(),
                {"jain", "victim_utilization", "aggregate_utilization"});
  return header;
}

/// What a record or replay produced: the corpus (record-traces only), the
/// summary or replay table, and the job note.
struct Outcome {
  std::vector<trace::Trace> traces;
  Table table;
  std::string note;
};

/// One job's attack target, resolved once from its `domain`, `adversary`,
/// `protocol` and `flows` keys. resolve_target() is the only place the
/// train-adversary, record-traces and replay executors branch on ABR / CC /
/// fairness.
struct Target {
  std::string label;  ///< the protocol's or sender's name, or the flow mix
  rl::PpoConfig config;  ///< the adversary's PPO setup
  /// A fresh adversary env that owns the target it attacks.
  std::function<std::shared_ptr<rl::Env>()> make_env;
  /// Roll a trained adversary out `count` times.
  std::function<Outcome(const rl::PpoAgent&, std::size_t count)> record;
  /// CEM: search `count` traces directly (ABR only).
  std::function<Outcome(std::size_t count)> search;
  /// Replay a recorded trace set into `replay_suffix`.
  std::function<Outcome(const std::vector<trace::Trace>&)> replay;
  std::string replay_suffix = "_replay.csv";
};

/// AbrAdversaryEnv holds its protocol by reference; this keeps the two
/// alive together behind one shared_ptr<rl::Env>.
struct OwnedAbrEnv {
  explicit OwnedAbrEnv(std::unique_ptr<abr::AbrProtocol> target)
      : protocol(std::move(target)), env(job_manifest(), *protocol) {}
  std::unique_ptr<abr::AbrProtocol> protocol;
  core::AbrAdversaryEnv env;
};

/// Per-trace regret (offline-optimal minus protocol QoE) of an ABR corpus.
Outcome regret_summary(const core::ProtocolFactory& make_target,
                       std::vector<trace::Trace> traces) {
  const abr::VideoManifest manifest = job_manifest();
  Outcome out;
  out.table.header = {"trace", "optimal_qoe", "protocol_qoe", "regret"};
  double total = 0.0;
  for (const trace::Trace& t : traces) {
    const double optimal = abr::optimal_playback(manifest, t).total_qoe;
    const double got =
        abr::run_playback(*make_target(), manifest, t).total_qoe;
    out.table.rows.push_back({optimal, got, optimal - got});
    total += optimal - got;
  }
  out.note = note_printf(
      "%zu traces, mean regret %.2f QoE", traces.size(),
      traces.empty() ? 0.0 : total / static_cast<double>(traces.size()));
  out.traces = std::move(traces);
  return out;
}

/// CEM: one independent search per trace, stream-forked before dispatch, so
/// the corpus is bit-identical at any thread count.
std::vector<trace::Trace> cem_traces(const JobContext& ctx,
                                     const core::ProtocolFactory& make_target,
                                     std::size_t count) {
  core::CemTraceAdversary::Params params;
  params.population = size_param(ctx, "population", params.population);
  const std::size_t nominal_iterations =
      size_param(ctx, "iterations", params.iterations);
  params.iterations = std::max<std::size_t>(
      static_cast<std::size_t>(static_cast<double>(nominal_iterations) *
                               std::min(1.0, util::bench_scale())),
      2);
  const core::CemTraceAdversary cem{params};
  const abr::VideoManifest manifest = job_manifest();
  std::vector<util::Rng> streams = util::Rng{ctx.seed}.fork_streams(count);
  return util::parallel_map(ctx.pool, count, [&](std::size_t i) {
    return cem.search(manifest, *make_target(), streams[i]).best_trace;
  });
}

Target abr_target(const JobContext& ctx) {
  const core::ProtocolFactory make_target =
      target_factory(ctx, core::abr_protocols());
  Target target;
  target.label = make_target()->name();
  target.make_env = [make_target]() -> std::shared_ptr<rl::Env> {
    const auto owned = std::make_shared<OwnedAbrEnv>(make_target());
    return {owned, &owned->env};
  };
  target.record = [&ctx, make_target](const rl::PpoAgent& agent,
                                      std::size_t count) {
    return regret_summary(
        make_target,
        core::record_abr_traces(agent, job_manifest(), make_target,
                                core::AbrAdversaryEnv::Params{}, count,
                                ctx.seed, /*deterministic=*/false, ctx.pool));
  };
  target.search = [&ctx, make_target](std::size_t count) {
    return regret_summary(make_target, cem_traces(ctx, make_target, count));
  };
  target.replay = [&ctx, make_target](const std::vector<trace::Trace>& traces) {
    const std::vector<double> qoe = abr::qoe_per_trace(
        make_target, job_manifest(), traces, {}, ctx.pool);
    Outcome out;
    out.table.header = {"trace", "qoe"};
    for (const double q : qoe) out.table.rows.push_back({q});
    out.note = note_printf("%zu replays, mean QoE %.2f", qoe.size(),
                           qoe.empty() ? 0.0 : util::mean(qoe));
    return out;
  };
  target.replay_suffix = "_qoe.csv";
  return target;
}

Target cc_target(const JobContext& ctx) {
  const core::SenderFactory make_sender =
      target_factory(ctx, core::cc_senders());
  core::CcAdversaryEnv::Params params;
  params.episode_duration_s = duration_param(ctx, params.episode_duration_s);
  Target target;
  target.label = make_sender()->name();
  target.make_env = [params, make_sender] {
    return std::make_shared<core::CcAdversaryEnv>(params, make_sender);
  };
  // The summary is per-episode utilization, the CC analog of regret (the
  // adversary's success metric is how far below 1.0 it pins this).
  target.record = [&ctx, params, make_sender](const rl::PpoAgent& agent,
                                              std::size_t count) {
    Outcome out;
    out.table.header = {"trace", "mean_utilization"};
    double total = 0.0;
    for (const core::CcEpisodeRecord& e : core::record_cc_episodes(
             agent, params, make_sender, count, ctx.seed,
             /*deterministic=*/false, ctx.pool)) {
      out.traces.push_back(e.trace);
      out.table.rows.push_back({e.mean_utilization});
      total += e.mean_utilization;
    }
    const std::size_t n = out.traces.size();
    const double mean = n == 0 ? 0.0 : total / static_cast<double>(n);
    out.note = note_printf("%zu cc episodes, mean utilization %.1f%%", n,
                           100.0 * mean);
    return out;
  };
  target.replay = [&ctx, make_sender](const std::vector<trace::Trace>& traces) {
    Outcome out;
    out.table.header = {"trace", "utilization", "throughput_mbps"};
    double total = 0.0;
    for (const core::CcReplayResult& r : core::replay_cc_traces(
             make_sender, traces, {}, ctx.seed, ctx.pool)) {
      out.table.rows.push_back({r.mean_utilization, r.mean_throughput_mbps});
      total += r.mean_utilization;
    }
    const std::size_t n = out.table.rows.size();
    out.note = note_printf(
        "%zu cc replays, mean utilization %.1f%%", n,
        n == 0 ? 0.0 : 100.0 * total / static_cast<double>(n));
    return out;
  };
  return target;
}

/// A flow mix on the shared bottleneck (`flows =`, default bbr,bbr). The
/// fairness adversary kinds attack it, paid per `reward = jain | victim`;
/// without one the mix is only replayable.
Target flow_mix_target(const JobContext& ctx, const std::string& adversary) {
  Target target;
  target.label = ctx.job->value_or("flows", "bbr,bbr");
  std::vector<core::SenderFactory> mix;
  try {
    mix = core::resolve_flow_mix(target.label);
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
  target.replay = [&ctx, mix](const std::vector<trace::Trace>& traces) {
    Outcome out;
    out.table.header = flow_header("trace", mix.size());
    double jain_total = 0.0;
    for (const core::FairnessReplayResult& r : core::replay_fairness_traces(
             mix, traces, {}, double_param(ctx, "stagger", 0.5), ctx.seed,
             ctx.pool)) {
      std::vector<double> row = r.mean_flow_throughput_mbps;
      row.insert(row.end(), {r.mean_jain, r.mean_victim_utilization,
                             r.mean_aggregate_utilization});
      out.table.rows.push_back(std::move(row));
      jain_total += r.mean_jain;
    }
    const std::size_t n = out.table.rows.size();
    out.note = note_printf("%zu multi-flow replays, mean Jain %.3f", n,
                           n == 0 ? 1.0 : jain_total / static_cast<double>(n));
    return out;
  };

  const auto scenario = core::fairness_scenario_for(adversary);
  if (!scenario) {
    target.make_env = [&ctx]() -> std::shared_ptr<rl::Env> {
      job_fail(ctx, "flows = <mix> needs a fairness adversary kind "
                    "(fairness | cross-traffic | late-join)");
    };
    return target;
  }
  core::FairnessAdversaryEnv::Params params;
  params.scenario = *scenario;
  try {
    params.reward =
        core::parse_fairness_reward(ctx.job->value_or("reward", "jain"));
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
  params.episode_duration_s = duration_param(ctx, params.episode_duration_s);
  // Short test/smoke episodes must still see every flow start: shrink the
  // stagger (and the late-join window) with the episode so the reward gate
  // opens while there are epochs left to pay for.
  params.stagger_s =
      std::min(params.stagger_s, params.episode_duration_s /
                                     (4.0 * static_cast<double>(mix.size())));
  params.late_join_max_s =
      std::min(params.late_join_max_s, params.episode_duration_s / 3.0);
  params.late_join_min_s =
      std::min(params.late_join_min_s, params.late_join_max_s);

  target.make_env = [params, mix] {
    return std::make_shared<core::FairnessAdversaryEnv>(params, mix);
  };
  target.record = [&ctx, params, mix, adversary, label = target.label](
                      const rl::PpoAgent& agent, std::size_t count) {
    Outcome out;
    out.table.header = flow_header("episode", mix.size());
    double jain_total = 0.0;
    double victim_total = 0.0;
    for (const core::FairnessEpisodeRecord& e : core::record_fairness_episodes(
             agent, params, mix, count, ctx.seed, /*deterministic=*/false,
             ctx.pool)) {
      out.traces.push_back(e.trace);
      std::vector<double> row;
      for (const auto& flow : e.flow_throughput_mbps) {
        row.push_back(util::mean(flow));
      }
      row.insert(row.end(), {e.mean_jain, e.mean_victim_utilization,
                             e.mean_aggregate_utilization});
      out.table.rows.push_back(std::move(row));
      jain_total += e.mean_jain;
      victim_total += e.mean_victim_utilization;
    }
    const double n =
        out.traces.empty() ? 1.0 : static_cast<double>(out.traces.size());
    const double mean_victim = victim_total / n;
    out.note = note_printf(
        "%zu %s episodes vs %s, mean Jain %.3f, victim util %.1f%%",
        out.traces.size(), adversary.c_str(), label.c_str(), jain_total / n,
        100.0 * mean_victim);
    return out;
  };
  return target;
}

Target resolve_target(const JobContext& ctx) {
  const core::TargetDomain domain = domain_param(ctx);
  const std::string adversary = ctx.job->value_or("adversary", "ppo");
  const bool fairness_kind = core::fairness_scenario_for(adversary).has_value();
  Target target;
  if (domain == core::TargetDomain::kAbr) {
    if (fairness_kind) job_fail(ctx, "fairness adversaries need domain = cc");
    target = abr_target(ctx);
  } else if (adversary == "cem") {
    job_fail(ctx, "adversary = cem needs domain = abr — CEM searches "
                  "chunk-bandwidth traces, an ABR formulation");
  } else if (fairness_kind || ctx.job->find("flows") != nullptr) {
    target = flow_mix_target(ctx, adversary);
  } else {
    target = cc_target(ctx);
  }
  // The paper's per-domain PPO setup; fairness adversaries are CC ones.
  target.config = core::adversary_ppo_config(domain);
  return target;
}

JobResult run_gen_traces(const JobContext& ctx) {
  std::unique_ptr<trace::TraceGenerator> generator;
  try {
    generator = core::trace_generators().make(ctx.job->value_or("generator", ""));
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
  const std::size_t count = scaled_count(size_param(ctx, "count", 100));
  util::Rng rng{ctx.seed};
  const std::vector<trace::Trace> traces = generator->generate_many(count, rng);
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_traces.csv"));
  trace::save_trace_set(traces, result.artifacts.back());
  result.note = std::to_string(count) + " " + generator->name() + " traces";
  return result;
}

JobResult run_train_adversary(const JobContext& ctx) {
  const std::string adversary = ctx.job->value_or("adversary", "ppo");
  if (adversary != "ppo" && !core::fairness_scenario_for(adversary)) {
    job_fail(ctx, "train-adversary supports adversary = ppo or a fairness "
                  "kind (fairness | cross-traffic | late-join); CEM is "
                  "trace-based — use record-traces with adversary = cem");
  }
  const Target target = resolve_target(ctx);
  const std::size_t steps =
      util::scaled_steps(size_param(ctx, "steps", 80000), 256);
  const std::shared_ptr<rl::Env> env = target.make_env();
  const rl::PpoAgent agent = core::train_adversary(
      *env, target.config, steps, ctx.seed, nullptr, ctx.pool);

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_adversary.ckpt"));
  rl::save_checkpoint(agent, result.artifacts.back());
  if (const std::string* store_name = ctx.job->find("store_name")) {
    result.artifacts.push_back(publish_checkpoint(
        ctx, *store_name, "adversary", result.artifacts.front()));
  }
  const std::string kind = adversary == "ppo" ? "" : adversary + " ";
  result.note = "PPO " + kind + "adversary vs " + target.label + ", " +
                std::to_string(steps) + " steps";
  return result;
}

/// The `from = <train-adversary job>` checkpoint a PPO-family record loads.
std::string adversary_checkpoint(const JobContext& ctx) {
  const std::string* from = ctx.job->find("from");
  if (from == nullptr) {
    job_fail(ctx, "record-traces with adversary = ppo needs from = "
                  "<train-adversary job>");
  }
  return ctx.input_ending_with(*from, "_adversary.ckpt");
}

JobResult run_record_traces(const JobContext& ctx) {
  const std::string adversary = ctx.job->value_or("adversary", "ppo");
  if (!core::adversary_kinds().contains(adversary)) {
    job_fail(ctx, "unknown adversary '" + adversary + "' (" +
                      core::adversary_kinds().names() + ")");
  }
  const std::size_t count = scaled_count(size_param(ctx, "count", 20));
  const Target target = resolve_target(ctx);

  Outcome recorded;
  if (adversary == "cem") {
    recorded = target.search(count);
  } else {
    const std::string checkpoint = adversary_checkpoint(ctx);
    const std::shared_ptr<rl::Env> env = target.make_env();
    recorded = target.record(
        core::restore_adversary(*env, target.config, checkpoint), count);
  }

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_traces.csv"));
  trace::save_trace_set(recorded.traces, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_summary.csv"));
  write_table(recorded.table, result.artifacts.back());
  result.note = recorded.note;
  return result;
}

/// The trace set a replay or serve job reads: `traces = <trace-set job>` or
/// `trace_file = <path>`.
std::vector<trace::Trace> job_traces(const JobContext& ctx) {
  if (const std::string* set_job = ctx.job->find("traces")) {
    return trace::load_trace_set(
        ctx.input_ending_with(*set_job, "_traces.csv"));
  }
  if (const std::string* file = ctx.job->find("trace_file")) {
    return trace::load_trace_set(*file);
  }
  job_fail(ctx, ctx.job->kind +
                    " needs traces = <trace-set job> or trace_file = ...");
}

JobResult run_replay(const JobContext& ctx) {
  const Target target = resolve_target(ctx);
  const Outcome replayed = target.replay(job_traces(ctx));
  JobResult result;
  result.artifacts.push_back(ctx.artifact(target.replay_suffix));
  write_table(replayed.table, result.artifacts.back());
  result.note = replayed.note;
  return result;
}

JobResult run_serve(const JobContext& ctx) {
  std::vector<trace::Trace> traces = job_traces(ctx);

  const std::string qoe_name = ctx.job->value_or("qoe", "lin");
  std::unique_ptr<abr::QoeModel> qoe;
  try {
    qoe = core::qoe_models().make(qoe_name, target_args(ctx));
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }

  const std::size_t sessions = scaled_count(size_param(ctx, "sessions", 100));
  const std::string protocol = ctx.job->value_or("protocol", "");
  serve::SessionEngine engine{job_manifest(), std::move(traces)};
  serve::ServeStats stats;
  std::vector<serve::SessionSummary> summaries;
  if (protocol == "pensieve" && ctx.job->value_or("batch", "on") != "off") {
    // Batched inference: one act_deterministic_batch per tick. Decisions are
    // bit-identical to the per-session path, so `batch = off` changes only
    // throughput, never the artifact.
    const core::FactoryArgs args = target_args(ctx);
    const std::string* checkpoint = args.find("checkpoint");
    if (checkpoint == nullptr) {
      job_fail(ctx, "protocol 'pensieve' needs checkpoint = <path> or "
                    "checkpoint_from = <robustify-round job>");
    }
    rl::PpoAgent agent = abr::make_pensieve_agent(engine.manifest(),
                                                  /*seed=*/0);
    rl::load_checkpoint(agent, *checkpoint);
    serve::PensieveBatchPolicy policy{agent};
    summaries = engine.run(policy, *qoe, sessions, ctx.pool, &stats);
  } else {
    summaries = engine.run(target_factory(ctx, core::abr_protocols()), *qoe,
                           sessions, ctx.pool, &stats);
  }

  double qoe_total = 0.0;
  for (const serve::SessionSummary& s : summaries) qoe_total += s.qoe;
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_sessions.csv"));
  serve::save_session_summaries(summaries, result.artifacts.back());
  result.note = note_printf(
      "%zu sessions x %zu traces, mean %s QoE %.2f (%.0f decisions/s)",
      summaries.size(), engine.traces().size(), qoe->name().c_str(),
      qoe_total / static_cast<double>(summaries.size()),
      stats.decisions_per_s());
  return result;
}

/// `key = <generator>` resolved against the registry, with the param name in
/// the failure so grid/round specs pinpoint the bad line.
std::unique_ptr<trace::TraceGenerator> generator_param(
    const JobContext& ctx, const std::string& key, const std::string& kind) {
  try {
    return core::trace_generators().make(kind);
  } catch (const std::exception& e) {
    job_fail(ctx, key + ": " + e.what());
  }
}

/// Training corpus shared by robustify-round and train-protocol: a
/// `corpus_from =` gen-traces dependency or a freshly generated
/// `train_set =` corpus, plus the recorded trace sets of any
/// `traces_from =` dependencies (the iterated Section-2.3 loop).
std::vector<trace::Trace> training_corpus(const JobContext& ctx) {
  std::vector<trace::Trace> corpus;
  if (const std::string* corpus_from = ctx.job->find("corpus_from")) {
    corpus = trace::load_trace_set(
        ctx.input_ending_with(*corpus_from, "_traces.csv"));
  } else if (const std::string* train_set = ctx.job->find("train_set")) {
    const auto generator = generator_param(ctx, "train_set", *train_set);
    util::Rng rng{ctx.seed ^ 0x9e3779b97f4a7c15ULL};
    corpus = generator->generate_many(
        scaled_count(size_param(ctx, "corpus_count", 100)), rng);
  } else {
    job_fail(ctx, ctx.job->kind + " needs corpus_from = <gen-traces job> or "
                  "train_set = " + core::trace_generators().names());
  }
  for (const auto& prev :
       util::split_list(ctx.job->value_or("traces_from", ""))) {
    const std::vector<trace::Trace> extra =
        trace::load_trace_set(ctx.input_ending_with(prev, "_traces.csv"));
    corpus.insert(corpus.end(), extra.begin(), extra.end());
  }
  return corpus;
}

JobResult run_robustify_round(const JobContext& ctx) {
  const abr::VideoManifest manifest = job_manifest();
  abr::PensieveEnv env{manifest, training_corpus(ctx)};
  rl::PpoAgent pensieve = abr::make_pensieve_agent(manifest, ctx.seed);
  if (const std::string* init = ctx.job->find("init")) {
    rl::load_checkpoint(pensieve,
                        ctx.input_ending_with(*init, "_pensieve.ckpt"));
  }

  core::RobustifyConfig cfg;
  cfg.protocol_steps =
      util::scaled_steps(size_param(ctx, "protocol_steps", 150000), 1024);
  cfg.inject_fraction = double_param(ctx, "inject_fraction", 0.9);
  if (cfg.inject_fraction <= 0.0 || cfg.inject_fraction >= 1.0) {
    job_fail(ctx, "inject_fraction must lie in (0, 1) — a round without an "
                  "adversary phase is plain training");
  }
  cfg.adversary_steps =
      util::scaled_steps(size_param(ctx, "adversary_steps", 80000), 512);
  cfg.adversarial_traces = scaled_count(size_param(ctx, "traces", 100));
  cfg.seed = ctx.seed;
  cfg.pool = ctx.pool;
  const core::RobustifyResult round = core::robustify_pensieve(pensieve, env, cfg);

  // Held-out evaluation with a *pinned* seed so rounds stay comparable.
  const std::string eval_kind = ctx.job->value_or("eval_set", "fcc");
  const auto eval_generator = generator_param(ctx, "eval_set", eval_kind);
  util::Rng eval_rng{size_param(ctx, "eval_seed", 20190707)};
  const std::vector<trace::Trace> eval_traces = eval_generator->generate_many(
      scaled_count(size_param(ctx, "eval_count", 50)), eval_rng);
  const std::vector<double> qoe = abr::qoe_per_trace(
      [&pensieve]() -> std::unique_ptr<abr::AbrProtocol> {
        return std::make_unique<abr::OwnedPensievePolicy>(pensieve);
      },
      manifest, eval_traces, {}, ctx.pool);
  const double mean_qoe = util::mean(qoe);
  const double p5_qoe = util::percentile(qoe, 5);

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_pensieve.ckpt"));
  rl::save_checkpoint(pensieve, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_traces.csv"));
  trace::save_trace_set(round.adversarial_traces, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_metrics.csv"));
  {
    util::CsvWriter writer{result.artifacts.back()};
    writer.write_row(std::vector<std::string>{
        "mean_qoe", "p5_qoe", "eval_traces", "corpus_traces",
        "adversarial_traces"});
    writer.write_row(std::vector<double>{
        mean_qoe, p5_qoe, static_cast<double>(eval_traces.size()),
        static_cast<double>(env.traces().size()),
        static_cast<double>(round.adversarial_traces.size())});
  }
  result.note = note_printf(
      "eval mean QoE %.2f, p5 %.2f (%zu adversarial traces added)", mean_qoe,
      p5_qoe, round.adversarial_traces.size());
  return result;
}

/// Plain (non-adversarial) Pensieve training — generation candidates in the
/// co-training loop, baselines anywhere else. The corpus comes from
/// training_corpus(); `exploit_from = <record jobs>` plus `top_k = N`
/// focuses retraining on the most-exploiting adversaries: each listed
/// record job's _summary.csv yields a mean regret, and the top k by regret
/// contribute their recorded traces to the corpus.
JobResult run_train_protocol(const JobContext& ctx) {
  const abr::VideoManifest manifest = job_manifest();
  std::vector<trace::Trace> corpus = training_corpus(ctx);

  std::size_t exploit_used = 0;
  const std::vector<std::string> exploit =
      util::split_list(ctx.job->value_or("exploit_from", ""));
  if (!exploit.empty()) {
    // Rank candidate corpora by how hard they exploit (mean regret from each
    // record job's summary); stable sort keeps ties in declaration order.
    std::vector<std::pair<double, std::size_t>> ranked;
    for (std::size_t i = 0; i < exploit.size(); ++i) {
      util::CsvTable summary;
      try {
        summary =
            util::read_csv(ctx.input_ending_with(exploit[i], "_summary.csv"));
      } catch (const std::exception& e) {
        job_fail(ctx, e.what());
      }
      std::size_t regret_col = summary.header.size();
      for (std::size_t c = 0; c < summary.header.size(); ++c) {
        if (summary.header[c] == "regret") regret_col = c;
      }
      if (regret_col == summary.header.size()) {
        job_fail(ctx, "exploit_from job '" + exploit[i] +
                          "' has no regret column — rank exploiters with ABR "
                          "record-traces summaries");
      }
      double total = 0.0;
      for (const auto& row : summary.rows) total += row[regret_col];
      ranked.emplace_back(summary.rows.empty()
                              ? 0.0
                              : total / static_cast<double>(summary.rows.size()),
                          i);
    }
    std::stable_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a.first > b.first; });
    const std::size_t top_k =
        std::min(size_param(ctx, "top_k", exploit.size()), exploit.size());
    if (top_k == 0) job_fail(ctx, "top_k must be >= 1");
    for (std::size_t r = 0; r < top_k; ++r) {
      const std::vector<trace::Trace> extra = trace::load_trace_set(
          ctx.input_ending_with(exploit[ranked[r].second], "_traces.csv"));
      corpus.insert(corpus.end(), extra.begin(), extra.end());
    }
    exploit_used = top_k;
  }

  abr::PensieveEnv env{manifest, std::move(corpus)};
  rl::PpoAgent pensieve = abr::make_pensieve_agent(manifest, ctx.seed);
  if (const std::string* init = ctx.job->find("init")) {
    rl::load_checkpoint(pensieve,
                        ctx.input_ending_with(*init, "_pensieve.ckpt"));
  }

  core::RobustifyConfig cfg;
  cfg.protocol_steps =
      util::scaled_steps(size_param(ctx, "steps", 150000), 1024);
  cfg.inject_fraction = 1.0;  // plain training: no adversary phase
  cfg.seed = ctx.seed;
  cfg.pool = ctx.pool;
  core::robustify_pensieve(pensieve, env, cfg);

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_pensieve.ckpt"));
  // v3 provenance meta: every value is a pure function of (params, resolved
  // seed, inputs), so the bytes keep the resume/thread-count identity.
  const rl::CheckpointMeta meta{
      {"campaign", ctx.campaign->name},
      {"job", ctx.job->id},
      {"kind", "train-protocol"},
      {"seed", std::to_string(ctx.seed)},
      {"steps", std::to_string(cfg.protocol_steps)},
      {"corpus_traces", std::to_string(env.traces().size())},
  };
  rl::save_checkpoint(pensieve, result.artifacts.back(), meta);
  if (const std::string* store_name = ctx.job->find("store_name")) {
    result.artifacts.push_back(publish_checkpoint(ctx, *store_name, "protocol",
                                                  result.artifacts.front()));
  }
  result.note = note_printf(
      "%zu steps on %zu traces (%zu/%zu exploiter sets)", cfg.protocol_steps,
      env.traces().size(), exploit_used, exploit.size());
  return result;
}

/// Fill one generation's regret matrix: every `checkpoints =` training
/// job's policy against every `corpora =` record job's trace set, all
/// through core::eval_matrix's single execution path.
JobResult run_eval_matrix(const JobContext& ctx) {
  const abr::VideoManifest manifest = job_manifest();
  std::vector<core::EvalRow> rows;
  for (const std::string& id :
       util::split_list(ctx.job->value_or("corpora", ""))) {
    rows.push_back(
        {id, trace::load_trace_set(ctx.input_ending_with(id, "_traces.csv"))});
  }
  if (rows.empty()) {
    job_fail(ctx, "eval-matrix needs corpora = <record-traces jobs>");
  }
  std::vector<core::EvalColumn> columns;
  for (const std::string& id :
       util::split_list(ctx.job->value_or("checkpoints", ""))) {
    core::FactoryArgs args;
    args.set("checkpoint", ctx.input_ending_with(id, "_pensieve.ckpt"));
    columns.push_back({id, core::abr_protocols().factory("pensieve", args)});
  }
  if (columns.empty()) {
    job_fail(ctx, "eval-matrix needs checkpoints = <training jobs>");
  }
  const core::EvalMatrix matrix =
      core::eval_matrix(manifest, rows, columns, ctx.pool);
  JobResult result;
  result.artifacts.push_back(ctx.artifact("_matrix.csv"));
  core::save_eval_matrix(matrix, result.artifacts.back());
  result.artifacts.push_back(ctx.artifact("_worst.csv"));
  core::save_eval_worst(matrix, result.artifacts.back());
  const std::size_t best = matrix.least_exploitable();
  result.note = note_printf(
      "%zux%zu regret matrix, least exploitable %s (worst-case QoE %.2f)",
      rows.size(), columns.size(), matrix.checkpoints[best].c_str(),
      matrix.worst_case_qoe(best));
  return result;
}

/// Read the winner off an eval-matrix job's _worst.csv and republish its
/// checkpoint byte-verbatim as this job's _pensieve.ckpt — so the existing
/// checkpoint_from plumbing targets a promote job like any trainer — plus
/// an optional store version (`store_name =` / `store_version =`).
JobResult run_promote(const JobContext& ctx) {
  const std::string* matrix_from = ctx.job->find("matrix_from");
  if (matrix_from == nullptr) {
    job_fail(ctx, "promote needs matrix_from = <eval-matrix job>");
  }
  const std::vector<std::string> checkpoints =
      util::split_list(ctx.job->value_or("checkpoints", ""));
  if (checkpoints.empty()) {
    job_fail(ctx, "promote needs checkpoints = <training jobs, in the "
                  "eval-matrix column order>");
  }
  util::CsvTable worst;
  try {
    worst = util::read_csv(ctx.input_ending_with(*matrix_from, "_worst.csv"));
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
  if (worst.rows.size() != checkpoints.size()) {
    job_fail(ctx, "checkpoints = lists " + std::to_string(checkpoints.size()) +
                      " jobs but the matrix scored " +
                      std::to_string(worst.rows.size()) + " columns");
  }
  // The promotion rule (EvalMatrix::least_exploitable, re-derived from the
  // artifact so promote stays a pure function of its inputs): argmax
  // worst-case QoE, ties to the lowest column index.
  std::size_t best = 0;
  for (std::size_t c = 1; c < worst.rows.size(); ++c) {
    if (worst.rows[c][2] > worst.rows[best][2]) best = c;
  }

  JobResult result;
  result.artifacts.push_back(ctx.artifact("_pensieve.ckpt"));
  try {
    copy_bytes(ctx.input_ending_with(checkpoints[best], "_pensieve.ckpt"),
               result.artifacts.back());
  } catch (const std::exception& e) {
    job_fail(ctx, e.what());
  }
  result.artifacts.push_back(ctx.artifact("_promotion.csv"));
  {
    util::CsvWriter writer{result.artifacts.back()};
    writer.write_row(std::vector<std::string>{"winner", "worst_case_regret",
                                              "worst_case_qoe"});
    writer.write_row(std::vector<double>{static_cast<double>(best),
                                         worst.rows[best][1],
                                         worst.rows[best][2]});
  }
  if (const std::string* store_name = ctx.job->find("store_name")) {
    result.artifacts.push_back(publish_checkpoint(ctx, *store_name, "protocol",
                                                  result.artifacts.front()));
  }
  result.note =
      note_printf("promoted %s (worst-case QoE %.2f, regret %.2f)",
                  checkpoints[best].c_str(), worst.rows[best][2],
                  worst.rows[best][1]);
  return result;
}

}  // namespace

JobRegistry builtin_jobs() {
  JobRegistry registry;
  registry.add("gen-traces",
               "synthesize a trace corpus (generator =, count =)",
               run_gen_traces);
  registry.add("train-adversary",
               "train a PPO adversary against a protocol/sender or a flow "
               "mix (domain =, protocol =/flows =, steps =)",
               run_train_adversary);
  registry.add("record-traces",
               "roll a trained adversary out (or CEM-search) into a "
               "replayable corpus (from =, count =)",
               run_record_traces);
  registry.add("replay",
               "replay a recorded trace set against a protocol/sender "
               "(traces =)",
               run_replay);
  registry.add("serve",
               "multiplex N concurrent sessions through serve::SessionEngine "
               "(protocol =, qoe =, sessions =, traces =)",
               run_serve);
  registry.add("robustify-round",
               "one Section-2.3 adversarial-training round of Pensieve",
               run_robustify_round);
  registry.add("train-protocol",
               "plain Pensieve training for the co-training loop "
               "(corpus_from =/train_set =, init =, exploit_from =, top_k =)",
               run_train_protocol);
  registry.add("eval-matrix",
               "score every checkpoint against every adversary corpus into a "
               "regret matrix (corpora =, checkpoints =)",
               run_eval_matrix);
  registry.add("promote",
               "republish the least-exploitable checkpoint, optionally into "
               "the campaign store (matrix_from =, checkpoints =)",
               run_promote);
  return registry;
}

}  // namespace netadv::exp
