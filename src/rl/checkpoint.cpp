#include "rl/checkpoint.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/spec.hpp"

namespace netadv::rl {

namespace {

void write_vector(std::ostream& out, const std::string& key,
                  std::span<const double> values) {
  out << key << ' ' << values.size();
  out.precision(17);
  for (double v : values) out << ' ' << v;
  out << '\n';
}

[[noreturn]] void load_fail(const std::string& path, const std::string& what) {
  throw std::runtime_error{"load_checkpoint: " + path + ": " + what};
}

void expect_key(std::istream& in, const std::string& path,
                const std::string& key) {
  std::string got;
  if (!(in >> got) || got != key) {
    load_fail(path, "expected field '" + key + "'");
  }
}

/// The next token as a count. Parsed strictly: `in >> std::size_t` would
/// wrap "-3" to 2^64 - 3.
std::size_t read_count(std::istream& in, const std::string& path,
                       const std::string& field) {
  std::string token;
  const auto n = in >> token ? util::parse_u64(token) : std::nullopt;
  if (!n) load_fail(path, field + ": missing or malformed count");
  return static_cast<std::size_t>(*n);
}

/// Read `<key> <n> <v1> ... <vn>` where n must equal `expected` — checked
/// before anything is allocated, so a corrupt count fails by name instead
/// of sizing a vector from the file.
std::vector<double> read_vector(std::istream& in, const std::string& path,
                                const std::string& key, std::size_t expected) {
  expect_key(in, path, key);
  const std::size_t n = read_count(in, path, key);
  if (n != expected) {
    load_fail(path, key + " has " + std::to_string(n) +
                        " values, the agent needs " + std::to_string(expected));
  }
  std::vector<double> values(n);
  for (auto& v : values) {
    if (!(in >> v)) load_fail(path, key + ": truncated");
  }
  return values;
}

/// Parse the v3 `meta <n>` block at the stream's position: n whole lines of
/// `<key> <value...>`, the value being the rest of the line.
CheckpointMeta read_meta_block(std::istream& in, const std::string& path) {
  std::string key;
  std::size_t n = 0;
  if (!(in >> key >> n) || key != "meta") {
    throw std::runtime_error{"load_checkpoint: v3 missing meta block in " +
                             path};
  }
  std::string line;
  std::getline(in, line);  // consume the rest of the `meta <n>` line
  // No reserve(n): n comes from the file, so the loop (which stops at the
  // first missing line) bounds what a corrupt count can allocate.
  CheckpointMeta meta;
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) {
      throw std::runtime_error{"load_checkpoint: truncated meta block in " +
                               path};
    }
    const std::size_t space = line.find(' ');
    if (space == std::string::npos || space == 0) {
      throw std::runtime_error{"load_checkpoint: malformed meta line '" +
                               line + "' in " + path};
    }
    meta.emplace_back(line.substr(0, space), line.substr(space + 1));
  }
  return meta;
}

}  // namespace

void save_checkpoint(const PpoAgent& agent, const std::string& path) {
  save_checkpoint(agent, path, CheckpointMeta{});
}

void save_checkpoint(const PpoAgent& agent, const std::string& path,
                     const CheckpointMeta& meta) {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"save_checkpoint: cannot open " + path};

  // Metadata-free saves stay v2 so their bytes never move (checkpoint.hpp).
  if (meta.empty()) {
    out << "netadv-ppo-checkpoint v2\n";
  } else {
    out << "netadv-ppo-checkpoint v3\n";
    out << "meta " << meta.size() << '\n';
    for (const auto& [key, value] : meta) {
      if (key.empty() ||
          key.find_first_of(" \t\n") != std::string::npos ||
          value.find('\n') != std::string::npos) {
        throw std::runtime_error{
            "save_checkpoint: meta key '" + key +
            "' must be one whitespace-free token with a newline-free value"};
      }
      out << key << ' ' << value << '\n';
    }
  }
  out << "obs_size " << agent.observation_size() << '\n';
  const auto& spec = agent.action_spec();
  if (spec.type == ActionType::kDiscrete) {
    out << "action discrete " << spec.num_actions << '\n';
  } else {
    out << "action continuous " << spec.low.size() << '\n';
  }
  write_vector(out, "actor", agent.actor().params());
  write_vector(out, "critic", agent.critic().params());
  write_vector(out, "log_std", agent.log_std());
  write_vector(out, "obs_mean", agent.obs_normalizer().mean());
  // Raw Welford m2, not variance: exact round trip (see checkpoint.hpp).
  write_vector(out, "obs_m2", agent.obs_normalizer().m2());
  out << "obs_count " << agent.obs_normalizer().count() << '\n';
  if (!out) throw std::runtime_error{"save_checkpoint: write failed for " + path};
}

void load_checkpoint(PpoAgent& agent, const std::string& path) {
  std::ifstream in{path};
  if (!in) throw std::runtime_error{"load_checkpoint: cannot open " + path};

  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != "netadv-ppo-checkpoint" ||
      (version != "v1" && version != "v2" && version != "v3")) {
    throw std::runtime_error{"load_checkpoint: bad header in " + path};
  }
  if (version == "v3") {
    // Provenance only — skip it (read_checkpoint_meta retrieves it).
    read_meta_block(in, path);
  }

  expect_key(in, path, "obs_size");
  const std::size_t obs_size = read_count(in, path, "obs_size");
  if (obs_size != agent.observation_size()) {
    load_fail(path, "obs_size " + std::to_string(obs_size) +
                        " does not match the agent's " +
                        std::to_string(agent.observation_size()));
  }

  expect_key(in, path, "action");
  std::string action_kind;
  if (!(in >> action_kind)) load_fail(path, "action: missing kind");
  const std::size_t action_n = read_count(in, path, "action");
  const auto& spec = agent.action_spec();
  const bool discrete = spec.type == ActionType::kDiscrete;
  if ((discrete && (action_kind != "discrete" || action_n != spec.num_actions)) ||
      (!discrete && (action_kind != "continuous" || action_n != spec.low.size()))) {
    load_fail(path, "action space mismatch");
  }

  // Parse everything before touching the agent: a file that fails partway
  // leaves it as it was.
  const std::size_t obs_dim = agent.observation_size();
  const auto actor =
      read_vector(in, path, "actor", agent.actor().param_count());
  const auto critic =
      read_vector(in, path, "critic", agent.critic().param_count());
  auto log_std = read_vector(in, path, "log_std", agent.log_std().size());
  auto obs_mean = read_vector(in, path, "obs_mean", obs_dim);
  const std::string second_key = version == "v1" ? "obs_var" : "obs_m2";
  auto obs_second = read_vector(in, path, second_key, obs_dim);
  for (const double v : obs_second) {
    // A negative second moment would make normalize() take sqrt of a
    // negative number and emit NaN observations.
    if (!(v >= 0.0)) {
      load_fail(path, second_key + " has a negative entry " +
                          std::to_string(v));
    }
  }
  expect_key(in, path, "obs_count");
  const std::size_t obs_count = read_count(in, path, "obs_count");
  if (char extra = 0; in >> extra) {
    load_fail(path, "trailing content after obs_count");
  }

  std::copy(actor.begin(), actor.end(), agent.actor().params().begin());
  std::copy(critic.begin(), critic.end(), agent.critic().params().begin());
  agent.log_std() = std::move(log_std);
  if (version == "v1") {
    agent.obs_normalizer().restore(std::move(obs_mean), std::move(obs_second),
                                   obs_count);
  } else {
    agent.obs_normalizer().restore_moments(std::move(obs_mean),
                                           std::move(obs_second), obs_count);
  }
}

CheckpointMeta read_checkpoint_meta(const std::string& path) {
  std::ifstream in{path};
  if (!in) {
    throw std::runtime_error{"read_checkpoint_meta: cannot open " + path};
  }
  std::string magic;
  std::string version;
  if (!(in >> magic >> version) || magic != "netadv-ppo-checkpoint" ||
      (version != "v1" && version != "v2" && version != "v3")) {
    throw std::runtime_error{"read_checkpoint_meta: bad header in " + path};
  }
  if (version != "v3") return {};
  return read_meta_block(in, path);
}

}  // namespace netadv::rl
