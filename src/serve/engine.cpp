#include "serve/engine.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "abr/protocol.hpp"

namespace netadv::serve {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

/// One live playback. Everything a tick task touches lives here, so
/// parallel tick bodies confine their writes to their own slot.
struct SessionEngine::Session {
  Session(const abr::VideoManifest& manifest, std::size_t trace,
          const SessionEngine::Params& params)
      : trace_index(trace),
        stream(manifest, params.session),
        tracker(manifest, params.history_window) {}

  std::size_t trace_index;
  abr::StreamingSession stream;
  abr::AbrObservationTracker tracker;
  std::unique_ptr<abr::AbrProtocol> protocol;  ///< per-session mode only

  // Per-chunk accumulators, appended in playback order.
  std::vector<std::size_t> qualities;
  std::vector<double> bitrates_mbps;
  std::vector<double> rebuffers_s;
};

SessionEngine::SessionEngine(abr::VideoManifest manifest,
                             std::vector<trace::Trace> traces, Params params)
    : manifest_(std::move(manifest)),
      traces_(std::move(traces)),
      params_(params) {
  if (traces_.empty()) {
    throw std::invalid_argument{"SessionEngine: trace set must be non-empty"};
  }
}

std::vector<SessionEngine::Session> SessionEngine::make_sessions(
    std::size_t sessions) const {
  if (sessions == 0) {
    throw std::invalid_argument{"SessionEngine: need at least one session"};
  }
  std::vector<Session> out;
  out.reserve(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    out.emplace_back(manifest_, i % traces_.size(), params_);
    out.back().qualities.reserve(manifest_.num_chunks());
    out.back().bitrates_mbps.reserve(manifest_.num_chunks());
    out.back().rebuffers_s.reserve(manifest_.num_chunks());
  }
  return out;
}

void SessionEngine::apply_download(Session& session,
                                   std::size_t quality) const {
  const double bandwidth = abr::bandwidth_for_chunk(
      traces_[session.trace_index], session.stream.next_chunk());
  const abr::DownloadResult result =
      session.stream.download_next(quality, bandwidth);
  session.tracker.on_chunk(result.quality, result.bitrate_mbps,
                           result.throughput_mbps, result.download_time_s);
  session.qualities.push_back(result.quality);
  session.bitrates_mbps.push_back(result.bitrate_mbps);
  session.rebuffers_s.push_back(result.rebuffer_s);
}

std::vector<SessionSummary> SessionEngine::summarize(
    std::span<const Session> sessions, abr::QoeModel& qoe) const {
  std::vector<SessionSummary> out;
  out.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const Session& s = sessions[i];
    SessionSummary summary;
    summary.session = i;
    summary.trace = s.trace_index;
    summary.chunks = s.qualities.size();
    summary.qoe = qoe.total_score(s.qualities, s.rebuffers_s);
    summary.qoe_lin = abr::total_qoe(s.bitrates_mbps, s.rebuffers_s);
    double bitrate_sum = 0.0;
    for (std::size_t c = 0; c < s.qualities.size(); ++c) {
      summary.rebuffer_s += s.rebuffers_s[c];
      bitrate_sum += s.bitrates_mbps[c];
      if (c > 0 && s.qualities[c] != s.qualities[c - 1]) {
        ++summary.quality_switches;
      }
    }
    summary.mean_bitrate_mbps =
        bitrate_sum / static_cast<double>(s.qualities.size());
    out.push_back(summary);
  }
  return out;
}

std::vector<SessionSummary> SessionEngine::run(
    const abr::ProtocolFactory& make_protocol, abr::QoeModel& qoe,
    std::size_t num_sessions, util::ThreadPool* pool, ServeStats* stats) {
  std::vector<Session> sessions = make_sessions(num_sessions);
  for (Session& s : sessions) {
    s.protocol = make_protocol();
    s.protocol->begin_video(manifest_);
  }
  qoe.begin_video(manifest_);

  ServeStats local;
  local.sessions = num_sessions;
  const auto run_start = std::chrono::steady_clock::now();

  std::vector<std::size_t> active;
  std::vector<double> latencies;  // per-active-slot, this tick
  active.reserve(num_sessions);
  while (true) {
    active.clear();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (!sessions[i].stream.finished()) active.push_back(i);
    }
    if (active.empty()) break;
    ++local.ticks;
    local.decisions += active.size();

    latencies.assign(active.size(), 0.0);
    const auto tick = [&](std::size_t k) {
      Session& s = sessions[active[k]];
      s.tracker.sync_session(s.stream.next_chunk(), s.stream.remaining_chunks(),
                             s.stream.buffer_s());
      const auto decide_start = std::chrono::steady_clock::now();
      const std::size_t quality = s.protocol->choose_quality(s.tracker.current());
      latencies[k] = seconds_since(decide_start);
      apply_download(s, quality);
    };
    util::parallel_for(pool, active.size(), tick);
    local.decision_latency_s.insert(local.decision_latency_s.end(),
                                    latencies.begin(), latencies.end());
  }

  local.elapsed_s = seconds_since(run_start);
  if (stats != nullptr) *stats = std::move(local);
  return summarize(sessions, qoe);
}

std::vector<SessionSummary> SessionEngine::run(BatchPolicy& policy,
                                               abr::QoeModel& qoe,
                                               std::size_t num_sessions,
                                               util::ThreadPool* pool,
                                               ServeStats* stats) {
  std::vector<Session> sessions = make_sessions(num_sessions);
  policy.begin_serving(manifest_);
  qoe.begin_video(manifest_);

  ServeStats local;
  local.sessions = num_sessions;
  const auto run_start = std::chrono::steady_clock::now();

  std::vector<std::size_t> active;
  std::vector<const abr::AbrObservation*> observations;
  active.reserve(num_sessions);
  observations.reserve(num_sessions);
  while (true) {
    active.clear();
    for (std::size_t i = 0; i < sessions.size(); ++i) {
      if (!sessions[i].stream.finished()) active.push_back(i);
    }
    if (active.empty()) break;
    ++local.ticks;
    local.decisions += active.size();

    // Serial gather in session order: the whole tick's observations feed
    // one choose_batch call.
    observations.clear();
    for (const std::size_t i : active) {
      Session& s = sessions[i];
      s.tracker.sync_session(s.stream.next_chunk(), s.stream.remaining_chunks(),
                             s.stream.buffer_s());
      observations.push_back(&s.tracker.current());
    }
    const auto decide_start = std::chrono::steady_clock::now();
    const std::vector<std::size_t> qualities = policy.choose_batch(observations);
    const double batch_s = seconds_since(decide_start);
    if (qualities.size() != active.size()) {
      throw std::logic_error{"SessionEngine: batch policy returned " +
                             std::to_string(qualities.size()) +
                             " decisions for " + std::to_string(active.size()) +
                             " observations"};
    }
    local.decision_latency_s.insert(
        local.decision_latency_s.end(), active.size(),
        batch_s / static_cast<double>(active.size()));

    util::parallel_for(pool, active.size(), [&](std::size_t k) {
      apply_download(sessions[active[k]], qualities[k]);
    });
  }

  local.elapsed_s = seconds_since(run_start);
  if (stats != nullptr) *stats = std::move(local);
  return summarize(sessions, qoe);
}

void save_session_summaries(std::span<const SessionSummary> summaries,
                            const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error{"save_session_summaries: cannot open " + path};
  }
  std::fprintf(f,
               "session,trace,chunks,qoe,qoe_lin,rebuffer_s,"
               "mean_bitrate_mbps,quality_switches\n");
  for (const SessionSummary& s : summaries) {
    // %.17g round-trips doubles exactly: bit-equal summaries <=> byte-equal
    // files, which is what the cross-thread-count CI identity check compares.
    std::fprintf(f, "%zu,%zu,%zu,%.17g,%.17g,%.17g,%.17g,%zu\n", s.session,
                 s.trace, s.chunks, s.qoe, s.qoe_lin, s.rebuffer_s,
                 s.mean_bitrate_mbps, s.quality_switches);
  }
  std::fclose(f);
}

}  // namespace netadv::serve
