#include "abr/mpc.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "abr/sim.hpp"

namespace netadv::abr {

RobustMpc::RobustMpc(Params params) : params_(params) {
  if (params_.horizon == 0 || params_.throughput_window == 0) {
    throw std::invalid_argument{"RobustMpc: bad parameters"};
  }
  if (!std::isfinite(params_.max_buffer_s) || params_.max_buffer_s <= 0.0) {
    throw std::invalid_argument{"RobustMpc: max_buffer_s must be finite and > 0"};
  }
  if (!std::isfinite(params_.qoe.rebuffer_penalty) ||
      !std::isfinite(params_.qoe.smoothness_penalty)) {
    throw std::invalid_argument{
        "RobustMpc: qoe.rebuffer_penalty and qoe.smoothness_penalty must be "
        "finite"};
  }
}

void RobustMpc::begin_video(const VideoManifest& manifest) {
  manifest_ = &manifest;
  const std::size_t nq = manifest.num_qualities();
  bitrate_mbps_.resize(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    bitrate_mbps_[q] = manifest.bitrate_mbps(q);
  }
  switch_cost_.resize(nq * nq);
  for (std::size_t prev = 0; prev < nq; ++prev) {
    for (std::size_t q = 0; q < nq; ++q) {
      switch_cost_[prev * nq + q] =
          params_.qoe.smoothness_penalty *
          std::abs(bitrate_mbps_[q] - bitrate_mbps_[prev]);
    }
  }
  download_s_.reserve(std::min(params_.horizon, manifest.num_chunks()) * nq);
  past_errors_.clear();
  last_prediction_mbps_ = 0.0;
  has_prediction_ = false;
}

double RobustMpc::predicted_throughput_mbps(
    const AbrObservation& observation) const {
  if (observation.throughput_history_mbps.empty()) {
    // Cold start: assume the lowest encoding is sustainable.
    return manifest_ != nullptr ? manifest_->bitrate_mbps(0) : 1.0;
  }
  const std::size_t n = std::min(params_.throughput_window,
                                 observation.throughput_history_mbps.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    denom += 1.0 / observation.throughput_history_mbps[i];
  }
  double prediction = static_cast<double>(n) / denom;
  if (params_.robust && !past_errors_.empty()) {
    const double max_err =
        *std::max_element(past_errors_.begin(), past_errors_.end());
    prediction /= 1.0 + max_err;
  }
  return prediction;
}

namespace {

/// Value of a plan search that found nothing better (the seed of every max).
constexpr double kNoPlan = -1e18;

/// Read-only inputs of one plan search (see the RobustMpc members).
struct PlanTables {
  const double* download_s;
  const double* bitrate_mbps;
  const double* switch_cost;
  std::size_t num_qualities;
  std::size_t depth_limit;
  double chunk_duration_s;
  double max_buffer_s;
  double rebuffer_penalty;

  /// Buffer left after a `dt`-second download from `buffer` seconds.
  double buffer_after(double buffer, double dt) const {
    return std::min(positive_part(buffer - dt) + chunk_duration_s,
                    max_buffer_s);
  }
};

/// QoE of the child `q` of a node at depth - 1 that streamed `prev_quality`
/// and has accumulated `qoe`: parent + ((R - pen*T) - sm*|R - prev|), the
/// operation order of chunk_qoe, with the switch term from its table.
inline double child_qoe(const PlanTables& t, std::size_t depth,
                        std::size_t prev_quality, std::size_t q, double buffer,
                        double qoe) {
  const std::size_t nq = t.num_qualities;
  const double stall = positive_part(t.download_s[depth * nq + q] - buffer);
  return qoe + ((t.bitrate_mbps[q] - t.rebuffer_penalty * stall) -
                t.switch_cost[prev_quality * nq + q]);
}

/// Best QoE over the leaves (the children at `depth`, the last lookahead
/// chunk) of a node that streamed `prev_quality`, left `buffer` seconds
/// buffered and has accumulated `qoe`. A leaf's buffer after download is
/// never computed. On x86 two leaves go per SSE2 lane pair, with child_qoe's
/// operations lane for lane (maxpd(x, 0) is positive_part).
inline double best_leaf(const PlanTables& t, std::size_t depth,
                        std::size_t prev_quality, double buffer, double qoe) {
  const std::size_t nq = t.num_qualities;
  double best = kNoPlan;
  std::size_t q = 0;
#if defined(__SSE2__)
  const double* dt = t.download_s + depth * nq;
  const double* switch_cost = t.switch_cost + prev_quality * nq;
  const __m128d buffer2 = _mm_set1_pd(buffer);
  const __m128d qoe2 = _mm_set1_pd(qoe);
  const __m128d penalty2 = _mm_set1_pd(t.rebuffer_penalty);
  __m128d best2 = _mm_set1_pd(kNoPlan);
  for (; q + 2 <= nq; q += 2) {
    const __m128d stall = _mm_max_pd(
        _mm_sub_pd(_mm_loadu_pd(dt + q), buffer2), _mm_setzero_pd());
    const __m128d term = _mm_sub_pd(
        _mm_sub_pd(_mm_loadu_pd(t.bitrate_mbps + q),
                   _mm_mul_pd(penalty2, stall)),
        _mm_loadu_pd(switch_cost + q));
    // maxpd(x, best) is x > best ? x : best, std::max(best, x) per lane.
    best2 = _mm_max_pd(_mm_add_pd(qoe2, term), best2);
  }
  best = std::max(_mm_cvtsd_f64(best2),
                  _mm_cvtsd_f64(_mm_unpackhi_pd(best2, best2)));
#endif
  for (; q < nq; ++q) {
    best = std::max(best, child_qoe(t, depth, prev_quality, q, buffer, qoe));
  }
  return best;
}

/// Best QoE over the complete plans below a node at depth - 1 that streamed
/// `prev_quality`, left `buffer` seconds buffered and has accumulated `qoe`.
///
/// Exactness against the plain exhaustive search (one running maximum over
/// every leaf): each plan's QoE is the same prefix sum of child_qoe terms,
/// and the order in which they are folded does not matter. Every maximum is
/// seeded with kNoPlan and folded by std::max (or maxpd), which never adopts
/// a NaN, so it returns the largest non-NaN leaf above kNoPlan, or kNoPlan.
/// No leaf is -0.0 (every prefix sum starts `0.0 +`, and x + y is -0.0 only
/// if both are), so equal leaves have equal bits and any fold order returns
/// the same bits.
double best_plan_below(const PlanTables& t, std::size_t depth,
                       std::size_t prev_quality, double buffer, double qoe) {
  if (depth + 1 >= t.depth_limit) {
    return best_leaf(t, depth, prev_quality, buffer, qoe);
  }
  const std::size_t nq = t.num_qualities;
  double best = kNoPlan;
  for (std::size_t q = 0; q < nq; ++q) {
    const double child = child_qoe(t, depth, prev_quality, q, buffer, qoe);
    const double child_buffer =
        t.buffer_after(buffer, t.download_s[depth * nq + q]);
    // Grandchildren that are leaves are folded here, saving a call per child.
    best = std::max(best,
                    depth + 2 >= t.depth_limit
                        ? best_leaf(t, depth + 1, q, child_buffer, child)
                        : best_plan_below(t, depth + 1, q, child_buffer, child));
  }
  return best;
}

}  // namespace

std::size_t RobustMpc::choose_quality(const AbrObservation& observation) {
  if (manifest_ == nullptr) throw std::logic_error{"RobustMpc: begin_video not called"};

  // Update the error window with how the previous prediction fared.
  if (has_prediction_ && !observation.throughput_history_mbps.empty()) {
    const double actual = observation.throughput_history_mbps.front();
    if (actual > 0.0) {
      past_errors_.push_back(std::abs(last_prediction_mbps_ - actual) / actual);
      while (past_errors_.size() > params_.throughput_window) {
        past_errors_.pop_front();
      }
    }
  }

  const double predicted = predicted_throughput_mbps(observation);

  // Remember the *undiscounted* harmonic-mean prediction for error tracking.
  if (!observation.throughput_history_mbps.empty()) {
    const std::size_t n = std::min(params_.throughput_window,
                                   observation.throughput_history_mbps.size());
    double denom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      denom += 1.0 / observation.throughput_history_mbps[i];
    }
    last_prediction_mbps_ = static_cast<double>(n) / denom;
    has_prediction_ = true;
  }

  // Predicted download time of every (lookahead chunk, quality) pair, with
  // the same operands and division the simulator uses per chunk.
  const std::size_t total = manifest_->num_chunks();
  if (observation.chunk_index >= total) {
    throw std::out_of_range{"RobustMpc: chunk_index past the end of the video"};
  }
  const std::size_t nq = manifest_->num_qualities();
  const std::size_t depth_limit =
      std::min(params_.horizon, total - observation.chunk_index);
  download_s_.resize(depth_limit * nq);
  for (std::size_t depth = 0; depth < depth_limit; ++depth) {
    for (std::size_t q = 0; q < nq; ++q) {
      download_s_[depth * nq + q] =
          manifest_->chunk_size_bits(observation.chunk_index + depth, q) /
          (predicted * 1e6);
    }
  }
  const PlanTables tables{download_s_.data(),
                          bitrate_mbps_.data(),
                          switch_cost_.data(),
                          nq,
                          depth_limit,
                          manifest_->chunk_duration_s(),
                          params_.max_buffer_s,
                          params_.qoe.rebuffer_penalty};

  // Commit to the first quality of the best plan; ties keep the lowest. The
  // first chunk is charged against the observed last bitrate, which need
  // not be on the ladder, so it goes through chunk_qoe itself; `0.0 +` is
  // the first step of the prefix sum (it turns a -0.0 term into +0.0).
  std::size_t best_quality = 0;
  double best_qoe = kNoPlan;
  for (std::size_t q = 0; q < nq; ++q) {
    const double dt = download_s_[q];
    const double stall = positive_part(dt - observation.buffer_s);
    const double qoe = 0.0 + chunk_qoe(bitrate_mbps_[q], stall,
                                       observation.last_bitrate_mbps,
                                       params_.qoe);
    double plan_qoe = std::max(kNoPlan, qoe);
    if (depth_limit > 1) {
      plan_qoe = best_plan_below(
          tables, 1, q, tables.buffer_after(observation.buffer_s, dt), qoe);
    }
    if (plan_qoe > best_qoe) {
      best_qoe = plan_qoe;
      best_quality = q;
    }
  }
  return best_quality;
}

}  // namespace netadv::abr
