// The cotrain part: one scale-reduced co-training campaign through
// exp::run_campaign, with explicit budgets in the spec (NETADV_SCALE is
// refused by main()).
//
// Chosen because it is the only part that exercises exp (waves, the
// manifest, artifacts), CheckpointStore, EvalMatrix, Pensieve protocol
// training, and parallelism across jobs rather than within one call. One
// round is one whole campaign in a fresh directory.
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "exp/campaign.hpp"
#include "exp/jobs.hpp"
#include "exp/scheduler.hpp"
#include "probes.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/spec.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace netadv;

struct Budget {
  std::size_t generations = 0;
  std::size_t corpus_count = 0;
  std::size_t protocol_steps = 0;   ///< whole 1024-step Pensieve rollouts
  std::size_t adversary_steps = 0;  ///< whole 2048-step adversary rollouts
  std::size_t traces = 0;
};

std::string campaign_spec(const Budget& b, std::uint64_t seed,
                          const std::string& out_dir) {
  return "[campaign]\nname = perfbench-cotrain\nseed = " +
         std::to_string(seed) + "\nout_dir = " + out_dir +
         "\n[job loop]\nkind = cotrain\ngenerations = " +
         std::to_string(b.generations) +
         "\nadversaries = ppo, cem\ncandidates = 1\ngenerator = fcc\n"
         // CEM search size (forwarded to every job; only cem reads it).
         "population = 8\niterations = 5\n"
         "corpus_count = " + std::to_string(b.corpus_count) +
         "\nprotocol_steps = " + std::to_string(b.protocol_steps) +
         "\nadversary_steps = " + std::to_string(b.adversary_steps) +
         "\ntraces = " + std::to_string(b.traces) + "\nstore = cotrain\n";
}

/// Per-campaign job timings, filled by the wrapped executors (jobs of one
/// wave run concurrently on the pool).
struct JobLog {
  std::mutex mutex;
  Tracer::Id campaign_span = 0;
  std::vector<double> job_s;             // guarded by mutex
  std::map<std::string, double> kind_s;  // guarded by mutex

  void clear() {
    const std::lock_guard<std::mutex> lock{mutex};
    job_s.clear();
    kind_s.clear();
  }
};

/// builtin_jobs() with every executor wrapped in a timer and a span.
exp::JobRegistry timed_jobs(JobLog& log, Tracer& tracer) {
  const exp::JobRegistry builtin = exp::builtin_jobs();
  exp::JobRegistry timed;
  for (const auto& [kind, description] : builtin.kinds()) {
    const exp::JobExecutor inner = *builtin.find(kind);
    timed.add(kind, description,
              [inner, kind = kind, &log, &tracer](const exp::JobContext& ctx) {
                const Scope span{tracer, "job:" + ctx.job->id,
                                 log.campaign_span};
                const Clock::time_point start = Clock::now();
                exp::JobResult result = inner(ctx);
                const double seconds = seconds_between(start, Clock::now());
                const std::lock_guard<std::mutex> lock{log.mutex};
                log.job_s.push_back(seconds);
                log.kind_s[kind] += seconds;
                return result;
              });
  }
  return timed;
}

/// The promoted champion's worst-case QoE is at least gen-0's, in every
/// generation (column 0 of each matrix is the gen-0 baseline).
bool promotion_holds(const std::string& out_dir, std::size_t generations) {
  for (std::size_t g = 0; g < generations; ++g) {
    const std::string tag = out_dir + "/loop-g" + std::to_string(g);
    const util::CsvTable worst = util::read_csv(tag + "-matrix_worst.csv");
    const util::CsvTable promotion =
        util::read_csv(tag + "-promote_promotion.csv");
    const auto winner = static_cast<std::size_t>(promotion.rows.at(0).at(0));
    if (!(worst.rows.at(winner).at(2) >= worst.rows.at(0).at(2))) return false;
  }
  return true;
}

class Cotrain final : public Part {
 public:
  Cotrain(const Options& options, Tracer& tracer)
      : tracer_(tracer),
        campaign_seed_(util::Rng{options.seed}()),
        out_dir_(options.work_dir + "/cotrain") {}

  // Set-up: the pool, the timed job registry, and a one-generation warm-up
  // campaign at reduced budgets.
  void setup() override {
    pool_.reset();
    pool_.emplace(kThreads);
    registry_.emplace(timed_jobs(log_, tracer_));
    Sample ignored;
    campaign(kWarmup, false, ignored, nullptr);
  }

  void round(bool traced, Sample& sample, Report& report) override {
    campaign(kMeasured, traced, sample, &report);
  }

  void finish(Report& /*report*/) override {
    std::filesystem::remove_all(out_dir_);
  }

 private:
  static constexpr Budget kMeasured{2, 16, 2048, 2048, 4};
  static constexpr Budget kWarmup{1, 4, 1024, 2048, 2};

  /// One campaign in a fresh directory; `report` is null for the warm-up,
  /// which is not measured.
  void campaign(const Budget& budget, bool traced, Sample& sample,
                Report* report) {
    std::filesystem::remove_all(out_dir_);
    const exp::Campaign spec = exp::parse_campaign(util::parse_spec_text(
        campaign_spec(budget, campaign_seed_, out_dir_), "perfbench-cotrain"));
    log_.clear();
    exp::SchedulerOptions scheduler;
    scheduler.pool = &*pool_;
    log_.campaign_span = tracer_.begin("exp.run_campaign", 0);
    const Clock::time_point t0 = Clock::now();
    const exp::CampaignReport result =
        exp::run_campaign(spec, *registry_, scheduler);
    const double wall_s = seconds_between(t0, Clock::now());
    tracer_.end(log_.campaign_span);
    if (report == nullptr) return;

    // Output checks, outside the timed phase.
    report->check(result.ok() && promotion_holds(out_dir_, budget.generations));
    for (const exp::JobOutcome& outcome : result.outcomes) {
      report->check(outcome.status == "completed");
    }

    sample.wall_s += wall_s;
    sample.generation_s += wall_s / static_cast<double>(budget.generations);
    if (traced) {
      const std::lock_guard<std::mutex> lock{log_.mutex};
      double busy_s = 0.0;
      for (const double s : log_.job_s) busy_s += s;
      LayerSample layers{
          {"exp.jobs", static_cast<double>(log_.job_s.size())},
          {"exp.jobs_failed",
           static_cast<double>(result.failed + result.blocked)},
          {"exp.pool_busy_frac",
           busy_s / (static_cast<double>(kThreads) * wall_s)},
      };
      for (const auto& [kind, seconds] : log_.kind_s) {
        layers["exp.job_s." + kind] = seconds;
      }
      add_layers(sample.layers, layers);
    }
  }

  Tracer& tracer_;
  std::uint64_t campaign_seed_ = 0;
  std::string out_dir_;
  std::optional<util::ThreadPool> pool_;
  JobLog log_;
  std::optional<exp::JobRegistry> registry_;
};

}  // namespace

std::unique_ptr<Part> make_cotrain(const Options& options, Tracer& tracer) {
  return std::make_unique<Cotrain>(options, tracer);
}

}  // namespace perfbench
