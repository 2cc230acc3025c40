// RobustMPC (Yin et al., SIGCOMM 2015) — the model-predictive ABR baseline
// the paper re-implements: predict throughput as the harmonic mean of the
// last 5 samples discounted by the recent maximum prediction error, then
// exhaustively search bitrate sequences over a lookahead horizon maximizing
// QoE_lin under the predicted throughput, committing only the first choice.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "abr/protocol.hpp"
#include "abr/qoe.hpp"

namespace netadv::abr {

class RobustMpc final : public AbrProtocol {
 public:
  struct Params {
    std::size_t horizon = 5;            ///< lookahead chunks
    std::size_t throughput_window = 5;  ///< harmonic-mean window
    bool robust = true;                 ///< discount by past prediction error
    QoeParams qoe{};
    double max_buffer_s = 60.0;
  };

  RobustMpc() : RobustMpc(Params{}) {}
  explicit RobustMpc(Params params);

  std::string name() const override { return params_.robust ? "mpc" : "fastmpc"; }
  void begin_video(const VideoManifest& manifest) override;
  std::size_t choose_quality(const AbrObservation& observation) override;

  /// The throughput estimate (Mbps) the controller would use now; exposed
  /// for tests and diagnostics.
  double predicted_throughput_mbps(const AbrObservation& observation) const;

 private:
  Params params_;
  const VideoManifest* manifest_ = nullptr;
  // Plan-search tables. download_s_[depth * num_qualities + q], the
  // predicted download time of chunk (chunk_index + depth) at quality q, is
  // refilled (not reallocated) per decision. Per video: bitrate_mbps_[q] and
  // switch_cost_[prev * num_qualities + q], the smoothness charge
  // qoe.smoothness_penalty * |bitrate(q) - bitrate(prev)|.
  std::vector<double> download_s_;
  std::vector<double> bitrate_mbps_;
  std::vector<double> switch_cost_;
  // Rolling relative prediction errors for the robust discount.
  std::deque<double> past_errors_;
  double last_prediction_mbps_ = 0.0;
  bool has_prediction_ = false;
};

}  // namespace netadv::abr
