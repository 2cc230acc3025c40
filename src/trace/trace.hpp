// Network traces: the time-ordered lists of network conditions that the
// paper's adversary emits and that protocols are replayed against. Each
// segment holds conditions fixed for a duration (the paper's "time step").
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace netadv::trace {

/// One fixed-condition segment of a trace.
struct Segment {
  double duration_s = 0.0;       ///< How long these conditions hold.
  double bandwidth_mbps = 0.0;   ///< Link capacity.
  double latency_ms = 0.0;       ///< One-way propagation delay.
  double loss_rate = 0.0;        ///< Bernoulli random loss in [0, 1].
};

/// A time-ordered list of fixed-condition segments.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<Segment> segments)
      : segments_(std::move(segments)) {}

  void append(Segment s) { segments_.push_back(s); }
  std::size_t size() const noexcept { return segments_.size(); }
  bool empty() const noexcept { return segments_.empty(); }
  const Segment& operator[](std::size_t i) const { return segments_.at(i); }
  const std::vector<Segment>& segments() const noexcept { return segments_; }

  double total_duration_s() const noexcept;

  /// Conditions at absolute time `t_s` (clamped to the final segment so a
  /// replay can run past the nominal end, as Mahimahi loops do).
  const Segment& at_time(double t_s) const;

  /// Mean bandwidth weighted by segment duration.
  double mean_bandwidth_mbps() const noexcept;

  /// Sum over consecutive segments of |bw_i - bw_{i-1}|: the trace
  /// "non-smoothness" the paper's adversary is penalized for.
  double bandwidth_total_variation() const noexcept;

 private:
  std::vector<Segment> segments_;
};

/// Save/load the CSV interchange format:
/// header `duration_s,bandwidth_mbps,latency_ms,loss_rate`, one segment per
/// row. Throws std::runtime_error on I/O or format errors, and on any
/// segment with a non-finite field, duration <= 0, negative bandwidth or
/// latency, or loss outside [0, 1]; the message names the path, the data row
/// (1-based, header excluded) and the field.
void save_trace(const Trace& trace, const std::string& path);
Trace load_trace(const std::string& path);

/// Save/load a whole corpus in one CSV (the artifact format of
/// netadv::exp trace-set jobs): header
/// `trace,duration_s,bandwidth_mbps,latency_ms,loss_rate`, one segment per
/// row, rows grouped by 0-based trace index in ascending order. Unlike the
/// bandwidth-only corpus dumps some benches emit, this round-trips every
/// segment field, so a loaded set replays exactly. Throws std::runtime_error
/// on I/O or format errors (including out-of-order or non-integer trace
/// indices) and on segments load_trace would reject.
void save_trace_set(const std::vector<Trace>& traces, const std::string& path);
std::vector<Trace> load_trace_set(const std::string& path);

}  // namespace netadv::trace
