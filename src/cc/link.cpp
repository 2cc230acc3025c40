#include "cc/link.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace netadv::cc {

LinkSim::LinkSim(Params params)
    : conditions_(params.initial),
      packet_bytes_(params.packet_bytes),
      max_queue_delay_s_(params.max_queue_delay_s) {
  if (!(packet_bytes_ > 0.0) || !(max_queue_delay_s_ > 0.0)) {
    throw std::invalid_argument{"LinkSim: bad parameters"};
  }
  set_conditions(params.initial);
}

void LinkSim::set_conditions(const LinkConditions& conditions) {
  // Each check states what must hold, so NaN (false under every comparison)
  // fails it instead of slipping past a "reject if out of range" test.
  const auto require = [](bool ok, const char* field, const char* range,
                          double value) {
    if (!ok) {
      throw std::invalid_argument{"LinkSim: " + std::string{field} +
                                  " must be " + range + ", got " +
                                  std::to_string(value)};
    }
  };
  require(std::isfinite(conditions.bandwidth_mbps) &&
              conditions.bandwidth_mbps > 0.0,
          "bandwidth_mbps", "finite and > 0", conditions.bandwidth_mbps);
  require(std::isfinite(conditions.one_way_delay_ms) &&
              conditions.one_way_delay_ms >= 0.0,
          "one_way_delay_ms", "finite and >= 0", conditions.one_way_delay_ms);
  require(conditions.loss_rate >= 0.0 && conditions.loss_rate <= 1.0,
          "loss_rate", "in [0, 1]", conditions.loss_rate);
  conditions_ = conditions;
}

double LinkSim::backlog_delay_s(double now_s) const {
  return std::max(0.0, server_free_at_s_ - now_s);
}

TransmitResult LinkSim::transmit(double now_s, util::Rng& rng) {
  TransmitResult result;

  if (conditions_.loss_rate > 0.0 && rng.bernoulli(conditions_.loss_rate)) {
    result.kind = TransmitResult::Kind::kRandomLoss;
    return result;
  }

  const double queue_delay = backlog_delay_s(now_s);
  if (queue_delay > max_queue_delay_s_) {
    result.kind = TransmitResult::Kind::kTailDrop;
    result.queue_delay_s = queue_delay;
    return result;
  }

  const double tx_delay = packet_bits() / (conditions_.bandwidth_mbps * 1e6);
  const double start = std::max(now_s, server_free_at_s_);
  server_free_at_s_ = start + tx_delay;

  const double owd = conditions_.one_way_delay_ms / 1000.0;
  result.kind = TransmitResult::Kind::kDelivered;
  result.queue_delay_s = queue_delay;
  result.delivery_time_s = server_free_at_s_ + owd;
  result.ack_return_time_s = result.delivery_time_s + owd;
  return result;
}

void LinkSim::reset() { server_free_at_s_ = 0.0; }

}  // namespace netadv::cc
