#include "abr/optimal.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "abr/runner.hpp"
#include "abr/sim.hpp"

namespace netadv::abr {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// One simulated chunk step shared by all planners.
struct StepOutcome {
  double buffer_after = 0.0;
  double rebuffer = 0.0;
};

StepOutcome simulate_step(const VideoManifest& manifest, std::size_t chunk,
                          std::size_t quality, double bandwidth_mbps,
                          double buffer, double max_buffer_s) {
  const double size_bits = manifest.chunk_size_bits(chunk, quality);
  const double dt = size_bits / (bandwidth_mbps * 1e6);
  StepOutcome out;
  out.rebuffer = positive_part(dt - buffer);
  out.buffer_after = std::min(
      positive_part(buffer - dt) + manifest.chunk_duration_s(), max_buffer_s);
  return out;
}

/// A window bandwidth must be a positive finite Mbps value: NaN would slip
/// past a plain `<= 0` test and download every chunk stall-free.
void check_window_bandwidths(const char* who,
                             std::span<const double> bandwidths_mbps) {
  for (std::size_t k = 0; k < bandwidths_mbps.size(); ++k) {
    const double bw = bandwidths_mbps[k];
    if (!std::isfinite(bw) || bw <= 0.0) {
      throw std::invalid_argument{
          std::string{who} + ": bandwidths_mbps[" + std::to_string(k) +
          "] must be finite and > 0 (got " + std::to_string(bw) + ")"};
    }
  }
}

}  // namespace

OptimalPlan optimal_playback(const VideoManifest& manifest,
                             const trace::Trace& trace,
                             const OptimalParams& params) {
  if (trace.empty()) throw std::invalid_argument{"optimal_playback: empty trace"};
  if (params.buffer_resolution_s <= 0.0 || params.max_buffer_s <= 0.0) {
    throw std::invalid_argument{"optimal_playback: bad parameters"};
  }

  const std::size_t num_q = manifest.num_qualities();
  const std::size_t num_chunks = manifest.num_chunks();
  const auto num_bins = static_cast<std::size_t>(
                            params.max_buffer_s / params.buffer_resolution_s) +
                        1;

  // Floor quantization keeps the DP's buffer estimate pessimistic, so every
  // plan it proposes is realizable; the reported QoE is recomputed by an
  // exact replay below.
  auto bin_of = [&](double buffer) {
    const auto b = static_cast<std::size_t>(
        std::floor(buffer / params.buffer_resolution_s));
    return std::min(b, num_bins - 1);
  };
  auto buffer_of = [&](std::size_t bin) {
    return static_cast<double>(bin) * params.buffer_resolution_s;
  };

  // dp[q][bin]: best QoE after streaming the current chunk at quality q and
  // landing on buffer `bin`. parent[chunk][q][bin]: predecessor (q, bin).
  const std::size_t cells = num_q * num_bins;
  std::vector<double> dp(cells, kNegInf);
  std::vector<double> next(cells, kNegInf);
  std::vector<std::int32_t> parent(num_chunks * cells, -1);
  auto idx = [&](std::size_t q, std::size_t bin) { return q * num_bins + bin; };

  // First chunk: cold start, no smoothness charge.
  {
    const double bw = bandwidth_for_chunk(trace, 0);
    for (std::size_t q = 0; q < num_q; ++q) {
      const StepOutcome out =
          simulate_step(manifest, 0, q, bw, 0.0, params.max_buffer_s);
      const double qoe =
          chunk_qoe(manifest.bitrate_mbps(q), out.rebuffer,
                    manifest.bitrate_mbps(q), params.qoe);
      const std::size_t bin = bin_of(out.buffer_after);
      if (qoe > dp[idx(q, bin)]) dp[idx(q, bin)] = qoe;
    }
  }

  for (std::size_t chunk = 1; chunk < num_chunks; ++chunk) {
    std::fill(next.begin(), next.end(), kNegInf);
    const double bw = bandwidth_for_chunk(trace, chunk);
    for (std::size_t pq = 0; pq < num_q; ++pq) {
      for (std::size_t pbin = 0; pbin < num_bins; ++pbin) {
        const double base = dp[idx(pq, pbin)];
        if (base == kNegInf) continue;
        const double buffer = buffer_of(pbin);
        for (std::size_t q = 0; q < num_q; ++q) {
          const StepOutcome out =
              simulate_step(manifest, chunk, q, bw, buffer, params.max_buffer_s);
          const double qoe =
              base + chunk_qoe(manifest.bitrate_mbps(q), out.rebuffer,
                               manifest.bitrate_mbps(pq), params.qoe);
          const std::size_t bin = bin_of(out.buffer_after);
          if (qoe > next[idx(q, bin)]) {
            next[idx(q, bin)] = qoe;
            parent[chunk * cells + idx(q, bin)] =
                static_cast<std::int32_t>(idx(pq, pbin));
          }
        }
      }
    }
    dp.swap(next);
  }

  // Locate the best terminal cell and walk parents back.
  std::size_t best_cell = 0;
  double best_qoe = kNegInf;
  for (std::size_t cell = 0; cell < cells; ++cell) {
    if (dp[cell] > best_qoe) {
      best_qoe = dp[cell];
      best_cell = cell;
    }
  }

  OptimalPlan plan;
  plan.qualities.assign(num_chunks, 0);
  std::size_t cell = best_cell;
  for (std::size_t chunk = num_chunks; chunk-- > 0;) {
    plan.qualities[chunk] = cell / num_bins;
    if (chunk > 0) {
      const std::int32_t p = parent[chunk * cells + cell];
      if (p < 0) break;  // unreachable by construction
      cell = static_cast<std::size_t>(p);
    }
  }

  // Report the QoE the plan actually earns under exact (unquantized) buffer
  // dynamics; best_qoe is only the DP's pessimistic estimate of it.
  (void)best_qoe;
  double buffer = 0.0;
  double prev_bitrate = manifest.bitrate_mbps(plan.qualities[0]);
  plan.total_qoe = 0.0;
  for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
    const double bw = bandwidth_for_chunk(trace, chunk);
    const StepOutcome out = simulate_step(manifest, chunk, plan.qualities[chunk],
                                          bw, buffer, params.max_buffer_s);
    const double bitrate = manifest.bitrate_mbps(plan.qualities[chunk]);
    plan.total_qoe += chunk_qoe(bitrate, out.rebuffer, prev_bitrate, params.qoe);
    buffer = out.buffer_after;
    prev_bitrate = bitrate;
  }
  return plan;
}

double window_qoe(const VideoManifest& manifest, std::size_t start_chunk,
                  double start_buffer_s, double prev_bitrate_mbps,
                  std::span<const std::size_t> qualities,
                  std::span<const double> bandwidths_mbps,
                  const QoeParams& qoe, double max_buffer_s) {
  if (qualities.size() != bandwidths_mbps.size()) {
    throw std::invalid_argument{"window_qoe: size mismatch"};
  }
  check_window_bandwidths("window_qoe", bandwidths_mbps);
  double buffer = start_buffer_s;
  double prev = prev_bitrate_mbps;
  double total = 0.0;
  for (std::size_t k = 0; k < qualities.size(); ++k) {
    const std::size_t chunk = start_chunk + k;
    if (chunk >= manifest.num_chunks()) break;
    const StepOutcome out = simulate_step(manifest, chunk, qualities[k],
                                          bandwidths_mbps[k], buffer,
                                          max_buffer_s);
    const double bitrate = manifest.bitrate_mbps(qualities[k]);
    total += chunk_qoe(bitrate, out.rebuffer, prev, qoe);
    buffer = out.buffer_after;
    prev = bitrate;
  }
  return total;
}

namespace {

/// Read-only inputs of one r_opt search: download_s[depth * num_qualities
/// + q] is chunk (start_chunk + depth)'s download time at quality q under
/// the window's bandwidth for that chunk.
struct WindowTables {
  const double* download_s;
  const double* bitrate_mbps;
  std::size_t num_qualities;
  std::size_t depth_limit;
  double chunk_duration_s;
  double max_buffer_s;
  const QoeParams* qoe;
};

/// Best QoE of the window suffix from `depth` on. Qualities are tried in
/// ascending order and each total is `here + rest` (rest = 0.0 past the
/// last chunk), the summation order of the plain exhaustive recursion, so
/// the result is bitwise the same.
double best_window_qoe(const WindowTables& t, std::size_t depth, double buffer,
                       double prev_bitrate) {
  const double* dt = t.download_s + depth * t.num_qualities;
  const bool last = depth + 1 >= t.depth_limit;
  double best = kNegInf;
  for (std::size_t q = 0; q < t.num_qualities; ++q) {
    const double bitrate = t.bitrate_mbps[q];
    const double stall = positive_part(dt[q] - buffer);
    const double here = chunk_qoe(bitrate, stall, prev_bitrate, *t.qoe);
    double rest = 0.0;
    if (!last) {
      const double next_buffer = std::min(
          positive_part(buffer - dt[q]) + t.chunk_duration_s, t.max_buffer_s);
      rest = best_window_qoe(t, depth + 1, next_buffer, bitrate);
    }
    best = std::max(best, here + rest);
  }
  return best;
}

}  // namespace

double optimal_window_qoe(const VideoManifest& manifest,
                          std::size_t start_chunk, double start_buffer_s,
                          double prev_bitrate_mbps,
                          std::span<const double> bandwidths_mbps,
                          const QoeParams& qoe, double max_buffer_s) {
  if (bandwidths_mbps.empty()) {
    throw std::invalid_argument{"optimal_window_qoe: empty window"};
  }
  check_window_bandwidths("optimal_window_qoe", bandwidths_mbps);
  if (start_chunk >= manifest.num_chunks()) return 0.0;

  // One row of download times per window chunk plus the bitrate row; a
  // typical r_opt window (4 chunks x 6 qualities) fits the stack buffer.
  const std::size_t nq = manifest.num_qualities();
  const std::size_t depth_limit =
      std::min(bandwidths_mbps.size(), manifest.num_chunks() - start_chunk);
  constexpr std::size_t kStackTable = 64;
  std::array<double, kStackTable> stack_table;
  std::vector<double> heap_table;
  double* table = stack_table.data();
  if ((depth_limit + 1) * nq > kStackTable) {
    heap_table.resize((depth_limit + 1) * nq);
    table = heap_table.data();
  }
  double* bitrate = table + depth_limit * nq;
  for (std::size_t q = 0; q < nq; ++q) bitrate[q] = manifest.bitrate_mbps(q);
  for (std::size_t depth = 0; depth < depth_limit; ++depth) {
    for (std::size_t q = 0; q < nq; ++q) {
      table[depth * nq + q] =
          manifest.chunk_size_bits(start_chunk + depth, q) /
          (bandwidths_mbps[depth] * 1e6);
    }
  }
  const WindowTables tables{table, bitrate, nq, depth_limit,
                            manifest.chunk_duration_s(), max_buffer_s, &qoe};
  return best_window_qoe(tables, 0, start_buffer_s, prev_bitrate_mbps);
}

}  // namespace netadv::abr
