// End-to-end correctness gates for the PPO trainer: it must solve the toy
// environments with known optima, and checkpoints must round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "rl/checkpoint.hpp"
#include "rl/ppo.hpp"
#include "rl/toy_envs.hpp"
#include "util/log.hpp"

namespace {

using namespace netadv::rl;
using netadv::util::Rng;

PpoConfig small_config() {
  PpoConfig cfg;
  cfg.hidden_sizes = {16};
  cfg.n_steps = 256;
  cfg.minibatch_size = 64;
  cfg.epochs = 6;
  cfg.learning_rate = 3e-3;
  cfg.ent_coef = 0.01;
  return cfg;
}

TEST(PpoTraining, SolvesContextualBandit) {
  netadv::util::set_log_level(netadv::util::LogLevel::kWarn);
  ContextualBanditEnv env{3, 4, 32};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 7};

  Rng eval_rng{1};
  const double before = agent.evaluate(env, 20, eval_rng);
  agent.train(env, 20000);
  const double after = agent.evaluate(env, 20, eval_rng);

  // Optimal is 32 (every step pays 1); random is 8.
  EXPECT_GT(after, 28.0);
  EXPECT_GT(after, before);
}

TEST(PpoTraining, DeterministicPolicyPicksCorrectArms) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 11};
  agent.train(env, 15000);
  // Probe each context directly.
  for (std::size_t ctx = 0; ctx < 2; ++ctx) {
    Vec obs(2, 0.0);
    obs[ctx] = 1.0;
    const Vec action = agent.act_deterministic(obs);
    EXPECT_EQ(static_cast<std::size_t>(action[0]), env.correct_arm(ctx))
        << "context " << ctx;
  }
}

TEST(PpoTraining, SolvesContinuousTargetChase) {
  TargetChaseEnv env{32};
  PpoConfig cfg = small_config();
  cfg.ent_coef = 0.0;
  PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 13};

  agent.train(env, 40000);
  Rng eval_rng{2};
  const double after = agent.evaluate(env, 20, eval_rng);
  // Optimal reward is 0; random-policy reward is around -0.3 * 32 ~ -10.
  EXPECT_GT(after, -1.5);

  // The learned mean should approximate a = 0.5 * target after env mapping.
  const Vec a_pos = env.action_spec().to_physical(agent.act_deterministic({0.8}));
  const Vec a_neg = env.action_spec().to_physical(agent.act_deterministic({-0.8}));
  EXPECT_NEAR(a_pos[0], 0.4, 0.15);
  EXPECT_NEAR(a_neg[0], -0.4, 0.15);
}

TEST(PpoTraining, RewardImprovesMonotonicallyOnAverage) {
  ContextualBanditEnv env{2, 2, 32};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 17};
  std::vector<double> curve;
  agent.train(env, 15000, [&](const UpdateInfo& info) {
    curve.push_back(info.mean_episode_reward);
  });
  ASSERT_GE(curve.size(), 4u);
  // Average of the last quarter must beat the first quarter.
  const std::size_t q = curve.size() / 4;
  double early = 0.0;
  double late = 0.0;
  for (std::size_t i = 0; i < q; ++i) early += curve[i];
  for (std::size_t i = curve.size() - q; i < curve.size(); ++i) late += curve[i];
  EXPECT_GT(late, early);
}

TEST(PpoTraining, TrainReportCountsAreConsistent) {
  ContextualBanditEnv env{2, 2, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 19};
  const TrainReport report = agent.train(env, 2000);
  EXPECT_GE(report.steps, 2000u);
  EXPECT_EQ(report.steps % small_config().n_steps, 0u);
  EXPECT_GT(report.updates, 0u);
  EXPECT_GT(report.episodes, 0u);
}

TEST(PpoTraining, MismatchedEnvObservationThrows) {
  ContextualBanditEnv env{3, 2, 8};
  PpoAgent agent{5, ActionSpec::discrete(2), small_config(), 23};
  EXPECT_THROW(agent.train(env, 100), std::invalid_argument);
}

TEST(PpoTraining, EvaluateScoresTheTrainedPolicy) {
  ContextualBanditEnv env{2, 3, 16};
  PpoConfig cfg;
  cfg.hidden_sizes = {16};
  cfg.n_steps = 256;
  cfg.minibatch_size = 64;
  cfg.learning_rate = 3e-3;
  PpoAgent agent{env.observation_size(), env.action_spec(), cfg, 29};
  agent.train(env, 8000);
  Rng rng{3};
  EXPECT_GT(agent.evaluate(env, 10, rng), 10.0);  // well above random (5.3)
  EXPECT_EQ(agent.observation_size(), env.observation_size());
  EXPECT_EQ(agent.action_spec().num_actions, 3u);
}

TEST(PpoAgent, ConstructorValidatesArguments) {
  EXPECT_THROW((PpoAgent{0, ActionSpec::discrete(2), small_config(), 1}),
               std::invalid_argument);
  EXPECT_THROW((PpoAgent{2, ActionSpec::discrete(1), small_config(), 1}),
               std::invalid_argument);
  ActionSpec bad = ActionSpec::continuous({0.0}, {1.0, 2.0});
  EXPECT_THROW((PpoAgent{2, bad, small_config(), 1}), std::invalid_argument);
  PpoConfig bad_mb = small_config();
  bad_mb.minibatch_size = bad_mb.n_steps + 1;
  EXPECT_THROW((PpoAgent{2, ActionSpec::discrete(2), bad_mb, 1}),
               std::invalid_argument);
}

TEST(Checkpoint, RoundTripPreservesBehaviour) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  agent.train(env, 6000);

  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_test.txt").string();
  save_checkpoint(agent, path);

  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(), 999};
  load_checkpoint(restored, path);

  for (std::size_t ctx = 0; ctx < 2; ++ctx) {
    Vec obs(2, 0.0);
    obs[ctx] = 1.0;
    EXPECT_EQ(agent.act_deterministic(obs)[0],
              restored.act_deterministic(obs)[0]);
    EXPECT_NEAR(agent.value_estimate(obs), restored.value_estimate(obs), 1e-9);
  }
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// save -> load -> save must reproduce the file byte for byte: parameters
/// are printed with round-trip precision and the v2 format stores the
/// normalizer's raw second moment, so nothing is lost to re-derivation.
void expect_checkpoint_byte_identity(PpoAgent& agent, PpoAgent& restored,
                                     const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path();
  const std::string first = (dir / ("netadv_ckpt_" + tag + "_1.txt")).string();
  const std::string second = (dir / ("netadv_ckpt_" + tag + "_2.txt")).string();
  save_checkpoint(agent, first);
  load_checkpoint(restored, first);
  save_checkpoint(restored, second);
  EXPECT_EQ(read_file(first), read_file(second)) << tag;
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(Checkpoint, SaveLoadSaveIsByteIdenticalDiscrete) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  agent.train(env, 1024);
  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(),
                    999};
  expect_checkpoint_byte_identity(agent, restored, "discrete");
}

TEST(Checkpoint, SaveLoadSaveIsByteIdenticalContinuous) {
  TargetChaseEnv env{16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  agent.train(env, 1024);
  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(),
                    999};
  expect_checkpoint_byte_identity(agent, restored, "continuous");
}

TEST(Checkpoint, SaveLoadSaveIsByteIdenticalUntrained) {
  // count_ < 2 is the regression case: restoring used to plant a spurious
  // second moment that changed the bytes (and later the variance).
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  PpoAgent restored{env.observation_size(), env.action_spec(), small_config(),
                    999};
  expect_checkpoint_byte_identity(agent, restored, "untrained");
}

TEST(Checkpoint, LoadsLegacyV1Format) {
  ContextualBanditEnv env{2, 2, 8};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 41};
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_v1.txt").string();
  {
    // Minimal hand-written v1 checkpoint (variance instead of m2).
    std::ofstream out{path};
    out << "netadv-ppo-checkpoint v1\n";
    out << "obs_size 2\n";
    out << "action discrete 2\n";
    out << "actor " << agent.actor().param_count();
    for (std::size_t i = 0; i < agent.actor().param_count(); ++i) out << " 0.5";
    out << "\ncritic " << agent.critic().param_count();
    for (std::size_t i = 0; i < agent.critic().param_count(); ++i) out << " 0.25";
    out << "\nlog_std 0\n";
    out << "obs_mean 2 1 2\n";
    out << "obs_var 2 4 9\n";
    out << "obs_count 10\n";
  }
  load_checkpoint(agent, path);
  EXPECT_EQ(agent.actor().params()[0], 0.5);
  EXPECT_EQ(agent.obs_normalizer().count(), 10u);
  EXPECT_DOUBLE_EQ(agent.obs_normalizer().variance()[0], 4.0);
  EXPECT_DOUBLE_EQ(agent.obs_normalizer().variance()[1], 9.0);
  std::remove(path.c_str());
}

TEST(Checkpoint, TopologyMismatchThrows) {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 31};
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_ckpt_bad.txt").string();
  save_checkpoint(agent, path);

  PpoAgent wrong_obs{3, env.action_spec(), small_config(), 31};
  EXPECT_THROW(load_checkpoint(wrong_obs, path), std::runtime_error);

  PpoAgent wrong_actions{2, ActionSpec::discrete(4), small_config(), 31};
  EXPECT_THROW(load_checkpoint(wrong_actions, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  ContextualBanditEnv env{2, 2, 8};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 37};
  EXPECT_THROW(load_checkpoint(agent, "/nonexistent/ckpt.txt"),
               std::runtime_error);
}

// --- corrupt checkpoints ---------------------------------------------------

/// A temp path private to the running test (ctest runs tests in parallel).
std::string test_temp_path(const std::string& stem) {
  const std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  return (std::filesystem::temp_directory_path() /
          ("netadv_" + stem + "_" + test + ".txt"))
      .string();
}

/// A trained discrete agent's checkpoint text (count >= 2, so obs_m2 holds
/// real second moments).
std::string trained_checkpoint_text() {
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 29};
  agent.train(env, 256);
  const std::string path = test_temp_path("ckpt_good");
  save_checkpoint(agent, path);
  std::string text = read_file(path);
  std::remove(path.c_str());
  return text;
}

/// Loading `text` must throw std::runtime_error naming the file and
/// `field`, and must leave the agent's parameters untouched.
void expect_load_rejects(const std::string& text, const std::string& field,
                         const std::string& tag) {
  const std::string path = test_temp_path("ckpt_corrupt");
  {
    std::ofstream out{path, std::ios::binary};
    out << text;
  }
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 5};
  const std::vector<double> before(agent.actor().params().begin(),
                                   agent.actor().params().end());
  try {
    load_checkpoint(agent, path);
    ADD_FAILURE() << tag << ": corrupt checkpoint loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << tag << ": " << what;
    EXPECT_NE(what.find(field), std::string::npos) << tag << ": " << what;
  }
  EXPECT_TRUE(std::equal(before.begin(), before.end(),
                         agent.actor().params().begin()))
      << tag << ": a failed load modified the agent";
  std::remove(path.c_str());
}

/// `text` with the line starting `key ` replaced by `line`.
std::string with_line(const std::string& text, const std::string& key,
                      const std::string& line) {
  const std::size_t start = text.find("\n" + key + " ") + 1;
  const std::size_t end = text.find('\n', start);
  return text.substr(0, start) + line + text.substr(end);
}

TEST(Checkpoint, TruncatedAtEachFieldFailsNamingPathAndField) {
  const std::string text = trained_checkpoint_text();
  for (const std::string field : {"obs_size", "action", "actor", "critic",
                                  "log_std", "obs_mean", "obs_m2",
                                  "obs_count"}) {
    // Cut just before the field, right after its key, and halfway through
    // its line.
    const std::size_t start = text.find("\n" + field + " ") + 1;
    ASSERT_NE(start, 0u) << field;
    const std::size_t half = (text.find('\n', start) - start) / 2;
    expect_load_rejects(text.substr(0, start), field, "before " + field);
    expect_load_rejects(text.substr(0, start + field.size() + 1), field,
                        "after the key of " + field);
    expect_load_rejects(text.substr(0, start + half), field,
                        "halfway through " + field);
  }
}

TEST(Checkpoint, CorruptCountFailsBeforeAllocating) {
  const std::string text = trained_checkpoint_text();
  // A bit-flipped count: the parser must compare it with the agent's
  // topology, not size a vector from it.
  expect_load_rejects(with_line(text, "actor", "actor 18446744073709551615"),
                      "actor", "huge actor count");
  expect_load_rejects(with_line(text, "critic", "critic 3 1 2 3"), "critic",
                      "short critic count");
  expect_load_rejects(with_line(text, "obs_mean", "obs_mean 3 0 0 0"),
                      "obs_mean", "obs_mean count");
  // Counts parse strictly: a sign is corruption, not a huge number.
  expect_load_rejects(with_line(text, "obs_count", "obs_count -3"),
                      "obs_count", "negative obs_count");
  // The v3 meta block's count is not checked against anything, so a corrupt
  // one must stop at the first missing line rather than reserve.
  const std::string v3 = "netadv-ppo-checkpoint v3\nmeta 18446744073709551615\n"
                         "job x\n" +
                         text.substr(text.find('\n') + 1);
  expect_load_rejects(v3, "meta", "huge meta count");
}

TEST(Checkpoint, NegativeSecondMomentIsRejected) {
  const std::string text = trained_checkpoint_text();
  expect_load_rejects(with_line(text, "obs_m2", "obs_m2 2 4 -1e-3"), "obs_m2",
                      "negative m2");
  // The legacy v1 variance field gets the same check.
  std::string v1 = with_line(text, "obs_m2", "obs_var 2 1 -4");
  v1.replace(0, v1.find('\n'), "netadv-ppo-checkpoint v1");
  expect_load_rejects(v1, "obs_var", "negative v1 variance");
}

TEST(Checkpoint, TrailingContentIsRejected) {
  const std::string text = trained_checkpoint_text();
  expect_load_rejects(text + "obs_count 7\n", "trailing", "repeated field");
  expect_load_rejects(text + "x", "trailing", "stray byte");
  // Trailing whitespace alone is not content.
  const std::string path = test_temp_path("ckpt_ws");
  {
    std::ofstream out{path, std::ios::binary};
    out << text << "\n  \n";
  }
  ContextualBanditEnv env{2, 3, 16};
  PpoAgent agent{env.observation_size(), env.action_spec(), small_config(), 5};
  EXPECT_NO_THROW(load_checkpoint(agent, path));
  std::remove(path.c_str());
}

// --- rollout activation cache ---------------------------------------------

void expect_same_params(const PpoAgent& a, const PpoAgent& b) {
  const auto pa = a.actor().params();
  const auto pb = b.actor().params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "actor param " << i;
  }
  const auto ca = a.critic().params();
  const auto cb = b.critic().params();
  ASSERT_EQ(ca.size(), cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    ASSERT_EQ(ca[i], cb[i]) << "critic param " << i;
  }
}

TEST(ActivationCache, TrainedParametersBitIdenticalCacheOnOrOff) {
  // The cache must be a pure wall-clock optimization: version-stamped reuse
  // of rollout activations yields the exact forwards the gradient pass would
  // recompute, so trained parameters cannot depend on the toggle.
  ContextualBanditEnv env_a{2, 3, 16};
  ContextualBanditEnv env_b{2, 3, 16};
  PpoAgent with_cache{env_a.observation_size(), env_a.action_spec(),
                      small_config(), 53};
  PpoAgent without_cache{env_b.observation_size(), env_b.action_spec(),
                         small_config(), 53};
  ASSERT_TRUE(with_cache.activation_cache_enabled());
  without_cache.set_activation_cache(false);
  with_cache.train(env_a, 1024);
  without_cache.train(env_b, 1024);
  expect_same_params(with_cache, without_cache);
}

TEST(ActivationCache, ContinuousActionTrainingBitIdenticalCacheOnOrOff) {
  TargetChaseEnv env_a{16};
  TargetChaseEnv env_b{16};
  PpoAgent with_cache{env_a.observation_size(), env_a.action_spec(),
                      small_config(), 59};
  PpoAgent without_cache{env_b.observation_size(), env_b.action_spec(),
                         small_config(), 59};
  without_cache.set_activation_cache(false);
  with_cache.train(env_a, 1024);
  without_cache.train(env_b, 1024);
  expect_same_params(with_cache, without_cache);
}

TEST(ActionSpec, PhysicalMappingClipsAndScales) {
  const ActionSpec spec = ActionSpec::continuous({6.0, 15.0}, {24.0, 60.0});
  const Vec mid = spec.to_physical({0.0, 0.0});
  EXPECT_DOUBLE_EQ(mid[0], 15.0);
  EXPECT_DOUBLE_EQ(mid[1], 37.5);
  const Vec clipped = spec.to_physical({-7.0, 9.0});
  EXPECT_DOUBLE_EQ(clipped[0], 6.0);
  EXPECT_DOUBLE_EQ(clipped[1], 60.0);
  const Vec back = spec.to_normalized({15.0, 37.5});
  EXPECT_NEAR(back[0], 0.0, 1e-12);
  EXPECT_NEAR(back[1], 0.0, 1e-12);
}

}  // namespace
