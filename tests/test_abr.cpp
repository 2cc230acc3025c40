// Tests for the ABR substrate: video manifest, QoE_lin, the streaming
// simulator's conservation invariants, BB's rate map, MPC's prediction and
// planning, the offline optimum, and the playback runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "abr/bb.hpp"
#include "abr/mpc.hpp"
#include "abr/mpc_dp.hpp"
#include "abr/qoe_model.hpp"
#include "abr/optimal.hpp"
#include "abr/qoe.hpp"
#include "abr/runner.hpp"
#include "abr/sim.hpp"
#include "abr/video.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace {

using namespace netadv::abr;
using netadv::trace::Segment;
using netadv::trace::Trace;
using netadv::util::Rng;

VideoManifest exact_manifest() {
  VideoManifest::Params p;
  p.size_variation = 0.0;  // sizes exactly bitrate * duration
  return VideoManifest{p};
}

Trace constant_trace(double bw_mbps, std::size_t segments = 48,
                     double duration = 4.0) {
  Trace t;
  for (std::size_t i = 0; i < segments; ++i) {
    t.append({duration, bw_mbps, 80.0, 0.0});
  }
  return t;
}

// ---------------------------------------------------------------- manifest

TEST(VideoManifest, DefaultsMatchPensieveSetup) {
  const VideoManifest m;
  EXPECT_EQ(m.num_qualities(), 6u);
  EXPECT_EQ(m.num_chunks(), 48u);
  EXPECT_DOUBLE_EQ(m.chunk_duration_s(), 4.0);
  EXPECT_DOUBLE_EQ(m.bitrate_kbps(0), 300.0);
  EXPECT_DOUBLE_EQ(m.bitrate_kbps(5), 4300.0);
  EXPECT_DOUBLE_EQ(m.max_bitrate_mbps(), 4.3);
  EXPECT_DOUBLE_EQ(m.total_duration_s(), 192.0);
}

TEST(VideoManifest, ChunkSizeIsBitrateTimesDuration) {
  const VideoManifest m = exact_manifest();
  // 300 kbps * 4 s = 1.2 Mbit
  EXPECT_NEAR(m.chunk_size_bits(0, 0), 1.2e6, 1.0);
  EXPECT_NEAR(m.chunk_size_bits(10, 5), 17.2e6, 1.0);
}

TEST(VideoManifest, SizesVaryButStayBounded) {
  VideoManifest::Params p;
  p.size_variation = 0.1;
  const VideoManifest m{p};
  for (std::size_t i = 0; i < m.num_chunks(); ++i) {
    const double nominal = 1.2e6;
    const double s = m.chunk_size_bits(i, 0);
    EXPECT_GE(s, nominal * 0.9 - 1.0);
    EXPECT_LE(s, nominal * 1.1 + 1.0);
  }
}

TEST(VideoManifest, SameSeedSameSizes) {
  const VideoManifest a;
  const VideoManifest b;
  for (std::size_t i = 0; i < a.num_chunks(); ++i) {
    EXPECT_DOUBLE_EQ(a.chunk_size_bits(i, 3), b.chunk_size_bits(i, 3));
  }
}

TEST(VideoManifest, ChunkSizesVectorMatchesScalar) {
  const VideoManifest m;
  const auto sizes = m.chunk_sizes_bits(7);
  ASSERT_EQ(sizes.size(), 6u);
  for (std::size_t q = 0; q < 6; ++q) {
    EXPECT_DOUBLE_EQ(sizes[q], m.chunk_size_bits(7, q));
  }
}

TEST(VideoManifest, ValidatesParameters) {
  VideoManifest::Params bad;
  bad.bitrates_kbps = {300, 300};
  EXPECT_THROW(VideoManifest{bad}, std::invalid_argument);
  bad.bitrates_kbps = {};
  EXPECT_THROW(VideoManifest{bad}, std::invalid_argument);
  VideoManifest::Params bad2;
  bad2.num_chunks = 0;
  EXPECT_THROW(VideoManifest{bad2}, std::invalid_argument);
  VideoManifest::Params bad3;
  bad3.size_variation = 1.5;
  EXPECT_THROW(VideoManifest{bad3}, std::invalid_argument);
}

TEST(VideoManifest, OutOfRangeChunkThrows) {
  const VideoManifest m;
  EXPECT_THROW(m.chunk_size_bits(48, 0), std::out_of_range);
  EXPECT_THROW(m.chunk_size_bits(0, 6), std::out_of_range);
}

// ---------------------------------------------------------------- qoe

TEST(Qoe, ChunkQoeComponents) {
  const QoeParams p;
  // 2 Mbps, 1 s stall, previous 3 Mbps: 2 - 4.3 - 1 = -3.3
  EXPECT_NEAR(chunk_qoe(2.0, 1.0, 3.0, p), -3.3, 1e-12);
  EXPECT_NEAR(chunk_qoe(2.0, 0.0, 2.0, p), 2.0, 1e-12);
}

TEST(Qoe, TotalQoeMatchesPaperFormula) {
  // R = {1, 3, 2}, T = {0, 0.5, 0}:
  // sum R = 6; 4.3 * 0.5 = 2.15; |3-1| + |2-3| = 3  ->  0.85
  const std::vector<double> r{1.0, 3.0, 2.0};
  const std::vector<double> t{0.0, 0.5, 0.0};
  EXPECT_NEAR(total_qoe(r, t), 0.85, 1e-12);
}

TEST(Qoe, SmoothnessChargedOncePerTransition) {
  const std::vector<double> r{1.0, 1.0, 1.0};
  const std::vector<double> t{0.0, 0.0, 0.0};
  EXPECT_NEAR(total_qoe(r, t), 3.0, 1e-12);
}

TEST(Qoe, RejectsBadSpans) {
  const std::vector<double> r{1.0};
  const std::vector<double> t;
  EXPECT_THROW(total_qoe(r, t), std::invalid_argument);
}

TEST(Qoe, BadSpanErrorsNameBothSizes) {
  const std::vector<double> r{1.0, 2.0};
  const std::vector<double> t{0.0, 0.0, 0.0};
  try {
    total_qoe(r, t);
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 bitrates"), std::string::npos) << what;
    EXPECT_NE(what.find("3 rebuffer entries"), std::string::npos) << what;
  }
  EXPECT_THROW(total_qoe({}, {}), std::invalid_argument);
}

// ---------------------------------------------------------------- qoe models

TEST(QoeModel, LinTotalScoreMatchesTotalQoeExactly) {
  const VideoManifest m = exact_manifest();
  LinQoe lin;
  lin.begin_video(m);
  const std::vector<std::size_t> qualities{0, 3, 2, 5, 5};
  const std::vector<double> rebuffers{1.0, 0.0, 0.5, 0.0, 0.25};
  std::vector<double> bitrates;
  for (const std::size_t q : qualities) bitrates.push_back(m.bitrate_mbps(q));
  EXPECT_DOUBLE_EQ(lin.total_score(qualities, rebuffers),
                   total_qoe(bitrates, rebuffers));
  EXPECT_DOUBLE_EQ(lin.quality_score(0, 5), 4.3);
  EXPECT_DOUBLE_EQ(lin.rebuffer_penalty(), 4.3);
}

TEST(QoeModel, ScoringBeforeBeginVideoIsALogicError) {
  LinQoe lin;
  EXPECT_THROW(lin.quality_score(0, 0), std::logic_error);
  LogQoe log;
  EXPECT_THROW(log.total_score(std::vector<std::size_t>{0},
                               std::vector<double>{0.0}),
               std::logic_error);
}

TEST(QoeModel, OutOfRangeErrorsEnumerateTheValidRanges) {
  const VideoManifest m = exact_manifest();  // 48 chunks x 6 qualities
  SsimTableQoe ssim;
  ssim.begin_video(m);
  try {
    ssim.quality_score(48, 0);
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("chunk 48 out of range [0, 48)"), std::string::npos)
        << what;
  }
  try {
    ssim.quality_score(0, 6);
    FAIL() << "expected throw";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quality 6 out of range [0, 6)"), std::string::npos)
        << what;
  }
}

TEST(QoeModel, LogIsZeroAtTheFloorAndConcave) {
  const VideoManifest m = exact_manifest();
  LogQoe log;
  log.begin_video(m);
  EXPECT_DOUBLE_EQ(log.quality_score(0, 0), 0.0);
  // Monotone in quality, with diminishing returns (concavity).
  double prev_score = 0.0;
  double prev_gain = std::numeric_limits<double>::infinity();
  for (std::size_t q = 1; q < m.num_qualities(); ++q) {
    const double score = log.quality_score(0, q);
    const double gain = score - prev_score;
    EXPECT_GT(gain, 0.0) << q;
    EXPECT_LT(gain, prev_gain) << q;
    prev_score = score;
    prev_gain = gain;
  }
}

// A table whose every row equals the bitrate ladder reduces the ssim model
// to QoE_lin (given lin's penalty weights): the table seam changes the
// quality axis, not the scoring structure.
TEST(QoeModel, BitrateIdentityTableReproducesQoeLin) {
  const VideoManifest m = exact_manifest();
  SsimTable table(m.num_chunks(), std::vector<double>(m.num_qualities()));
  for (auto& row : table) {
    for (std::size_t q = 0; q < m.num_qualities(); ++q) {
      row[q] = m.bitrate_mbps(q);
    }
  }
  SsimTableQoe ssim{std::move(table),
                    SsimTableQoe::Params{.rebuffer_penalty = 4.3,
                                         .smoothness_penalty = 1.0}};
  ssim.begin_video(m);
  const std::vector<std::size_t> qualities{1, 4, 4, 0, 2};
  const std::vector<double> rebuffers{0.0, 0.0, 1.5, 0.0, 0.0};
  std::vector<double> bitrates;
  for (const std::size_t q : qualities) bitrates.push_back(m.bitrate_mbps(q));
  EXPECT_DOUBLE_EQ(ssim.total_score(qualities, rebuffers),
                   total_qoe(bitrates, rebuffers));
}

TEST(QoeModel, SyntheticSsimTableIsMonotoneInQuality) {
  const VideoManifest m = exact_manifest();
  const SsimTable table = synthetic_ssim_table(m);
  ASSERT_EQ(table.size(), m.num_chunks());
  for (const auto& row : table) {
    ASSERT_EQ(row.size(), m.num_qualities());
    for (std::size_t q = 1; q < row.size(); ++q) {
      EXPECT_GT(row[q], row[q - 1]);  // more bits, better picture
    }
  }
}

TEST(QoeModel, SsimTableCsvRoundTrips) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_qoe_test").string();
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/table.csv";
  const VideoManifest m = exact_manifest();
  const SsimTable table = synthetic_ssim_table(m);
  save_ssim_table(table, path);
  const SsimTable loaded = load_ssim_table(path);
  ASSERT_EQ(loaded.size(), table.size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    ASSERT_EQ(loaded[i].size(), table[i].size()) << i;
    for (std::size_t q = 0; q < table[i].size(); ++q) {
      EXPECT_NEAR(loaded[i][q], table[i][q],
                  1e-5 * std::abs(table[i][q]) + 1e-9);
    }
  }
  // Loaded tables drive the model end to end.
  SsimTableQoe qoe{loaded};
  qoe.begin_video(m);
  EXPECT_NEAR(qoe.quality_score(0, 3), table[0][3],
              1e-5 * std::abs(table[0][3]));
}

TEST(QoeModel, SsimTableLoadRejectsBadHeaderAndOrder) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_qoe_test").string();
  std::filesystem::create_directories(dir);
  const std::string bad_header = dir + "/bad_header.csv";
  std::ofstream{bad_header} << "idx,q0\n0,1.0\n";
  EXPECT_THROW(load_ssim_table(bad_header), std::runtime_error);
  const std::string out_of_order = dir + "/out_of_order.csv";
  std::ofstream{out_of_order} << "chunk,q0\n1,1.0\n0,2.0\n";
  EXPECT_THROW(load_ssim_table(out_of_order), std::runtime_error);
  EXPECT_THROW(load_ssim_table(dir + "/missing.csv"), std::runtime_error);
  EXPECT_THROW(save_ssim_table({}, dir + "/empty.csv"), std::runtime_error);
}

TEST(QoeModel, SsimTableLoadIsStrictAboutRowsAndIndices) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "netadv_qoe_strict").string();
  std::filesystem::create_directories(dir);
  const auto expect_rejects = [&](const std::string& name,
                                  const std::string& content,
                                  const std::string& needle) {
    const std::string path = dir + "/" + name;
    std::ofstream{path} << content;
    try {
      load_ssim_table(path);
      FAIL() << name << " must not load";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string{e.what()}.find(needle), std::string::npos)
          << name << ": " << e.what();
    }
  };
  // A header with no chunk rows is an empty table, not a valid one.
  expect_rejects("header_only.csv", "chunk,q0,q1\n", "header-only");
  // A ragged row is rejected with the offending row named, never padded or
  // truncated to the header width.
  expect_rejects("ragged.csv", "chunk,q0,q1\n0,1.0,2.0\n1,3.0\n", "row");
  // Indices must match exactly: 2.9 is not chunk 2, and a negative index
  // must not wrap into range.
  expect_rejects("fractional.csv", "chunk,q0\n0,1.0\n1,2.0\n2.9,3.0\n",
                 "exact");
  expect_rejects("negative.csv", "chunk,q0\n-0.5,1.0\n", "exact");
}

TEST(QoeModel, SsimTableDimensionMismatchNamesBothShapes) {
  SsimTableQoe qoe{SsimTable{{1.0, 2.0}, {1.0, 2.0}}};  // 2 x 2
  try {
    qoe.begin_video(exact_manifest());  // 48 x 6
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 x 2"), std::string::npos) << what;
    EXPECT_NE(what.find("48 chunks x 6 qualities"), std::string::npos) << what;
  }
  EXPECT_THROW(SsimTableQoe{SsimTable{}}, std::invalid_argument);
}

// ---------------------------------------------------------------- sim

TEST(StreamingSession, FirstChunkColdStartStalls) {
  const VideoManifest m = exact_manifest();
  StreamingSession s{m};
  // 1.2 Mbit at 1.2 Mbps -> 1 s download, all of it stalled (empty buffer).
  const DownloadResult r = s.download_next(0, 1.2);
  EXPECT_NEAR(r.download_time_s, 1.0, 1e-9);
  EXPECT_NEAR(r.rebuffer_s, 1.0, 1e-9);
  EXPECT_NEAR(r.buffer_after_s, 4.0, 1e-9);
  EXPECT_EQ(s.next_chunk(), 1u);
}

TEST(StreamingSession, BufferAbsorbsDownloadTime) {
  const VideoManifest m = exact_manifest();
  StreamingSession s{m};
  s.download_next(0, 12.0);  // dt = 0.1 s, buffer -> 3.9 + ... = 4 - 0.1? no:
  // After chunk 1: buffer = max(0, 0-0.1)+4 = 4.0 - wait, 0.1 s of it stalls.
  // Second chunk at same rate: dt = 0.1, buffer 4 -> 3.9 + 4 = 7.9, no stall.
  const DownloadResult r = s.download_next(0, 12.0);
  EXPECT_NEAR(r.rebuffer_s, 0.0, 1e-9);
  EXPECT_NEAR(r.buffer_after_s, 7.9, 1e-9);
}

TEST(StreamingSession, BufferCapsAndSleeps) {
  const VideoManifest m = exact_manifest();
  StreamingSession s{m, {.max_buffer_s = 8.0}};
  s.download_next(0, 1000.0);
  s.download_next(0, 1000.0);
  const DownloadResult r = s.download_next(0, 1000.0);
  EXPECT_GT(r.sleep_s, 0.0);
  EXPECT_NEAR(r.buffer_after_s, 8.0, 1e-6);
}

TEST(StreamingSession, BufferNeverNegativeAndTimeMonotone) {
  const VideoManifest m;
  StreamingSession s{m};
  Rng rng{7};
  double last_clock = 0.0;
  while (!s.finished()) {
    const auto q = rng.index(m.num_qualities());
    const double bw = rng.uniform(0.3, 5.0);
    const DownloadResult r = s.download_next(q, bw);
    EXPECT_GE(r.buffer_after_s, 0.0);
    EXPECT_GE(r.rebuffer_s, 0.0);
    EXPECT_GE(s.clock_s(), last_clock);
    last_clock = s.clock_s();
  }
  EXPECT_EQ(s.next_chunk(), m.num_chunks());
}

TEST(StreamingSession, WallClockAccountsForPlaybackConservation) {
  // With no sleeping and no stalls the clock equals sum of download times;
  // stalls add on top. Invariant: clock >= sum(download) and
  // clock == sum(download) + sum(sleep).
  const VideoManifest m = exact_manifest();
  StreamingSession s{m};
  double dl = 0.0;
  double sleep = 0.0;
  while (!s.finished()) {
    const DownloadResult r = s.download_next(2, 2.0);
    dl += r.download_time_s;
    sleep += r.sleep_s;
  }
  EXPECT_NEAR(s.clock_s(), dl + sleep, 1e-9);
}

TEST(StreamingSession, FinishedSessionThrows) {
  VideoManifest::Params p;
  p.num_chunks = 2;
  const VideoManifest m{p};
  StreamingSession s{m};
  s.download_next(0, 1.0);
  s.download_next(0, 1.0);
  EXPECT_TRUE(s.finished());
  EXPECT_THROW(s.download_next(0, 1.0), std::logic_error);
}

TEST(StreamingSession, ValidatesInputs) {
  const VideoManifest m;
  StreamingSession s{m};
  EXPECT_THROW(s.download_next(99, 1.0), std::invalid_argument);
  EXPECT_THROW(s.download_next(0, 0.0), std::invalid_argument);
  EXPECT_THROW((StreamingSession{m, {.max_buffer_s = -1.0}}),
               std::invalid_argument);
}

TEST(StreamingSession, RejectsNonFiniteBandwidthWithoutAdvancing) {
  // NaN used to pass the `<= 0` check and download a chunk stall-free.
  const VideoManifest m;
  StreamingSession s{m};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    try {
      s.download_next(0, bad);
      FAIL() << "accepted bandwidth " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("bandwidth_mbps"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(s.next_chunk(), 0u);
  EXPECT_EQ(s.buffer_s(), 0.0);
}

TEST(StreamingSession, RestartResets) {
  const VideoManifest m;
  StreamingSession s{m};
  s.download_next(0, 1.0);
  s.restart();
  EXPECT_EQ(s.next_chunk(), 0u);
  EXPECT_DOUBLE_EQ(s.buffer_s(), 0.0);
  EXPECT_DOUBLE_EQ(s.clock_s(), 0.0);
}

// ---------------------------------------------------------------- bb

TEST(BufferBased, RateMapEndpoints) {
  const VideoManifest m;
  BufferBased bb;
  bb.begin_video(m);
  AbrObservation obs;
  obs.buffer_s = 5.0;  // below reservoir
  EXPECT_EQ(bb.choose_quality(obs), 0u);
  obs.buffer_s = 10.0;  // at reservoir boundary
  EXPECT_EQ(bb.choose_quality(obs), 0u);
  obs.buffer_s = 15.0;  // at reservoir + cushion
  EXPECT_EQ(bb.choose_quality(obs), 5u);
  obs.buffer_s = 40.0;
  EXPECT_EQ(bb.choose_quality(obs), 5u);
}

TEST(BufferBased, RateMapIsMonotoneInBuffer) {
  const VideoManifest m;
  BufferBased bb;
  bb.begin_video(m);
  AbrObservation obs;
  std::size_t last = 0;
  for (double b = 0.0; b <= 20.0; b += 0.25) {
    obs.buffer_s = b;
    const std::size_t q = bb.choose_quality(obs);
    EXPECT_GE(q, last);
    last = q;
  }
  EXPECT_EQ(last, 5u);
}

TEST(BufferBased, SwitchingBandIsReservoirToCushion) {
  // The paper: BB changes rate when buffer is in the 10-15 s range.
  const VideoManifest m;
  BufferBased bb;
  bb.begin_video(m);
  AbrObservation obs;
  obs.buffer_s = 12.5;
  const std::size_t mid = bb.choose_quality(obs);
  EXPECT_GT(mid, 0u);
  EXPECT_LT(mid, 5u);
}

TEST(BufferBased, RequiresBeginVideo) {
  BufferBased bb;
  AbrObservation obs;
  EXPECT_THROW(bb.choose_quality(obs), std::logic_error);
}

TEST(BufferBased, ValidatesParams) {
  EXPECT_THROW((BufferBased{{.reservoir_s = -1.0, .cushion_s = 5.0}}),
               std::invalid_argument);
  EXPECT_THROW((BufferBased{{.reservoir_s = 5.0, .cushion_s = 0.0}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------- mpc

TEST(RobustMpc, PredictsHarmonicMean) {
  const VideoManifest m;
  RobustMpc mpc{{.robust = false}};
  mpc.begin_video(m);
  AbrObservation obs;
  obs.throughput_history_mbps = {1.0, 2.0, 4.0};
  EXPECT_NEAR(mpc.predicted_throughput_mbps(obs), 12.0 / 7.0, 1e-9);
}

TEST(RobustMpc, ColdStartPredictsLowestBitrate) {
  const VideoManifest m;
  RobustMpc mpc;
  mpc.begin_video(m);
  AbrObservation obs;
  EXPECT_NEAR(mpc.predicted_throughput_mbps(obs), 0.3, 1e-9);
}

TEST(RobustMpc, PicksHighRateOnFastStableLink) {
  const VideoManifest m = exact_manifest();
  RobustMpc mpc;
  const Trace t = constant_trace(4.8);
  const PlaybackRecord record = run_playback(mpc, m, t);
  // Steady 4.8 Mbps: after ramp-up MPC should sit at 2.85 or 4.3 Mbps.
  int high = 0;
  for (std::size_t i = 8; i < record.chunks.size(); ++i) {
    if (record.chunks[i].bitrate_mbps >= 2.85) ++high;
  }
  EXPECT_GT(high, 35);
  EXPECT_NEAR(record.total_rebuffer_s, 0.0, 0.5);
}

TEST(RobustMpc, PicksLowRateOnSlowLink) {
  const VideoManifest m = exact_manifest();
  RobustMpc mpc;
  const Trace t = constant_trace(0.4);
  const PlaybackRecord record = run_playback(mpc, m, t);
  for (std::size_t i = 4; i < record.chunks.size(); ++i) {
    EXPECT_LE(record.chunks[i].bitrate_mbps, 0.75);
  }
}

TEST(RobustMpc, RobustVariantIsMoreConservative) {
  const VideoManifest m = exact_manifest();
  RobustMpc robust{{.robust = true}};
  RobustMpc fast{{.robust = false}};
  // Oscillating link makes prediction errors large.
  Trace t;
  for (int i = 0; i < 48; ++i) {
    t.append({4.0, i % 2 == 0 ? 4.0 : 1.0, 80.0, 0.0});
  }
  const PlaybackRecord rr = run_playback(robust, m, t);
  const PlaybackRecord rf = run_playback(fast, m, t);
  EXPECT_LE(rr.total_rebuffer_s, rf.total_rebuffer_s + 1e-9);
}

TEST(RobustMpc, ValidatesParams) {
  EXPECT_THROW((RobustMpc{{.horizon = 0}}), std::invalid_argument);
  EXPECT_THROW((RobustMpc{{.throughput_window = 0}}), std::invalid_argument);
}

TEST(RobustMpc, RequiresBeginVideo) {
  RobustMpc mpc;
  AbrObservation obs;
  EXPECT_THROW(mpc.choose_quality(obs), std::logic_error);
}

TEST(RobustMpc, RejectsNonFiniteBufferAndQoeWeights) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW((RobustMpc{{.max_buffer_s = bad}}), std::invalid_argument);
    EXPECT_THROW((RobustMpc{{.qoe = {.rebuffer_penalty = bad}}}),
                 std::invalid_argument);
    EXPECT_THROW((RobustMpc{{.qoe = {.smoothness_penalty = bad}}}),
                 std::invalid_argument);
  }
  try {
    RobustMpc{{.max_buffer_s = nan}};
    FAIL() << "NaN max_buffer_s accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("max_buffer_s"), std::string::npos);
  }
  try {
    RobustMpc{{.qoe = {.smoothness_penalty = inf}}};
    FAIL() << "infinite smoothness_penalty accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("smoothness_penalty"),
              std::string::npos);
  }
}

TEST(RobustMpc, ChunkIndexPastTheEndThrows) {
  const VideoManifest m;
  RobustMpc mpc;
  mpc.begin_video(m);
  AbrObservation obs;
  obs.chunk_index = m.num_chunks();
  EXPECT_THROW(mpc.choose_quality(obs), std::out_of_range);
}

// -------------------------------------------- mpc decision-identity gate
//
// ReferenceMpc is RobustMPC as first written: one heap stack of partial
// plans per first quality, a manifest lookup and a division per node. The
// table-driven search must reproduce its every decision.

class ReferenceMpc {
 public:
  explicit ReferenceMpc(RobustMpc::Params params) : params_(params) {}

  void begin_video(const VideoManifest& manifest) {
    manifest_ = &manifest;
    past_errors_.clear();
    last_prediction_mbps_ = 0.0;
    has_prediction_ = false;
  }

  std::size_t choose_quality(const AbrObservation& observation) {
    if (has_prediction_ && !observation.throughput_history_mbps.empty()) {
      const double actual = observation.throughput_history_mbps.front();
      if (actual > 0.0) {
        past_errors_.push_back(std::abs(last_prediction_mbps_ - actual) /
                               actual);
        while (past_errors_.size() > params_.throughput_window) {
          past_errors_.pop_front();
        }
      }
    }
    const double predicted = predicted_throughput_mbps(observation);
    if (!observation.throughput_history_mbps.empty()) {
      last_prediction_mbps_ = harmonic_mean(observation);
      has_prediction_ = true;
    }
    std::size_t best_quality = 0;
    double best_qoe = -1e18;
    for (std::size_t q = 0; q < manifest_->num_qualities(); ++q) {
      const double qoe = qoe_of_plan(observation, q, predicted);
      if (qoe > best_qoe) {
        best_qoe = qoe;
        best_quality = q;
      }
    }
    return best_quality;
  }

 private:
  double harmonic_mean(const AbrObservation& observation) const {
    const std::size_t n = std::min(params_.throughput_window,
                                   observation.throughput_history_mbps.size());
    double denom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      denom += 1.0 / observation.throughput_history_mbps[i];
    }
    return static_cast<double>(n) / denom;
  }

  double predicted_throughput_mbps(const AbrObservation& observation) const {
    if (observation.throughput_history_mbps.empty()) {
      return manifest_->bitrate_mbps(0);
    }
    double prediction = harmonic_mean(observation);
    if (params_.robust && !past_errors_.empty()) {
      prediction /=
          1.0 + *std::max_element(past_errors_.begin(), past_errors_.end());
    }
    return prediction;
  }

  double qoe_of_plan(const AbrObservation& observation,
                     std::size_t first_quality, double predicted_mbps) const {
    struct Frame {
      double buffer = 0.0;
      double prev_bitrate = 0.0;
      double qoe = 0.0;
    };
    struct Node {
      std::size_t depth;
      std::size_t quality;
      Frame frame;
    };
    const std::size_t total = manifest_->num_chunks();
    const std::size_t depth_limit =
        std::min(params_.horizon, total - observation.chunk_index);
    double best = -1e18;
    std::vector<Node> stack;
    stack.push_back(
        {0, first_quality,
         {observation.buffer_s, observation.last_bitrate_mbps, 0.0}});
    while (!stack.empty()) {
      const Node node = stack.back();
      stack.pop_back();
      const std::size_t chunk = observation.chunk_index + node.depth;
      const double size_bits = manifest_->chunk_size_bits(chunk, node.quality);
      const double dt = size_bits / (predicted_mbps * 1e6);
      const double rebuffer = std::max(0.0, dt - node.frame.buffer);
      double buffer = std::max(0.0, node.frame.buffer - dt) +
                      manifest_->chunk_duration_s();
      buffer = std::min(buffer, params_.max_buffer_s);
      const double bitrate = manifest_->bitrate_mbps(node.quality);
      const double qoe =
          node.frame.qoe +
          chunk_qoe(bitrate, rebuffer, node.frame.prev_bitrate, params_.qoe);
      if (node.depth + 1 >= depth_limit) {
        best = std::max(best, qoe);
        continue;
      }
      for (std::size_t q = 0; q < manifest_->num_qualities(); ++q) {
        stack.push_back({node.depth + 1, q, {buffer, bitrate, qoe}});
      }
    }
    return best;
  }

  RobustMpc::Params params_;
  const VideoManifest* manifest_ = nullptr;
  std::deque<double> past_errors_;
  double last_prediction_mbps_ = 0.0;
  bool has_prediction_ = false;
};

/// Log-uniform bandwidth in [0.05, 10] Mbps, the range the gates sweep.
double random_bandwidth(Rng& rng) {
  return std::exp(rng.uniform(std::log(0.05), std::log(10.0)));
}

/// The manifests the gate runs: the default ladder without and with VBR
/// size wobble, and an odd 5-rung VBR ladder (the leaf fold handles qualities
/// in pairs, so an odd count exercises its single-quality tail).
enum class GateManifest { kCbr, kVbr, kOddVbr };

VideoManifest gate_manifest(GateManifest which) {
  switch (which) {
    case GateManifest::kCbr:
      return exact_manifest();
    case GateManifest::kVbr:
      return VideoManifest{};
    case GateManifest::kOddVbr:
      return VideoManifest{{.bitrates_kbps = {300, 750, 1850, 2850, 4300}}};
  }
  return VideoManifest{};
}

std::string gate_manifest_name(GateManifest which) {
  switch (which) {
    case GateManifest::kCbr:
      return "cbr";
    case GateManifest::kVbr:
      return "vbr";
    case GateManifest::kOddVbr:
      return "odd5vbr";
  }
  return "?";
}

struct MpcIdentityConfig {
  GateManifest manifest;
  bool robust;
  std::size_t horizon;
};

class MpcDecisionIdentity
    : public ::testing::TestWithParam<MpcIdentityConfig> {};

TEST_P(MpcDecisionIdentity, MatchesTheReferenceSearchOnEveryDecision) {
  // Each playback streams the whole video, so the final chunks exercise the
  // horizon truncation; startup buffer and per-playback link regime vary so
  // both the stall-bound and the buffer-cap branches are reached.
  const MpcIdentityConfig config = GetParam();
  const VideoManifest manifest = gate_manifest(config.manifest);
  const RobustMpc::Params params{.horizon = config.horizon,
                                 .robust = config.robust};
  RobustMpc mpc{params};
  ReferenceMpc reference{params};
  Rng rng{1000 + config.horizon * 8 +
          static_cast<std::size_t>(config.manifest) * 2 +
          (config.robust ? 1 : 0)};
  constexpr int kPlaybacks = 200;
  std::size_t decisions = 0;
  for (int playback = 0; playback < kPlaybacks; ++playback) {
    mpc.begin_video(manifest);
    reference.begin_video(manifest);
    StreamingSession session{
        manifest, {.max_buffer_s = 60.0, .startup_buffer_s = rng.uniform(0.0, 20.0)}};
    AbrObservationTracker tracker{manifest, 1 + rng.index(8)};
    // Half the playbacks redraw the link every chunk; the rest hold it for a
    // while, which lets the buffer fill to the cap.
    const double hold = playback % 2 == 0 ? 0.0 : 0.8;
    double bandwidth = random_bandwidth(rng);
    while (!session.finished()) {
      tracker.sync_session(session.next_chunk(), session.remaining_chunks(),
                           session.buffer_s());
      const std::size_t expected = reference.choose_quality(tracker.current());
      const std::size_t got = mpc.choose_quality(tracker.current());
      ASSERT_EQ(got, expected)
          << "playback " << playback << ", chunk " << session.next_chunk()
          << ", buffer " << session.buffer_s();
      ++decisions;
      if (rng.uniform() >= hold) bandwidth = random_bandwidth(rng);
      const DownloadResult result = session.download_next(got, bandwidth);
      tracker.on_chunk(got, result.bitrate_mbps, result.throughput_mbps,
                       result.download_time_s);
    }
  }
  EXPECT_EQ(decisions, kPlaybacks * manifest.num_chunks());
}

std::vector<MpcIdentityConfig> mpc_identity_configs() {
  std::vector<MpcIdentityConfig> configs;
  for (const GateManifest manifest : {GateManifest::kCbr, GateManifest::kVbr}) {
    for (const bool robust : {true, false}) {
      for (std::size_t horizon = 1; horizon <= 6; ++horizon) {
        configs.push_back({manifest, robust, horizon});
      }
    }
  }
  for (std::size_t horizon = 1; horizon <= 6; ++horizon) {
    configs.push_back({GateManifest::kOddVbr, true, horizon});
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    ManifestsVariantsHorizons, MpcDecisionIdentity,
    ::testing::ValuesIn(mpc_identity_configs()),
    [](const ::testing::TestParamInfo<MpcIdentityConfig>& info) {
      return gate_manifest_name(info.param.manifest) + "_" +
             (info.param.robust ? "mpc" : "fastmpc") + "_h" +
             std::to_string(info.param.horizon);
    });

// ---------------------------------------------------------------- mpc-dp

TEST(MpcDp, PredictorMatchesRobustMpc) {
  const VideoManifest m;
  MpcDp dp{{.robust = false}, std::make_unique<LinQoe>()};
  dp.begin_video(m);
  AbrObservation obs;
  obs.throughput_history_mbps = {1.0, 2.0, 4.0};
  EXPECT_NEAR(dp.predicted_throughput_mbps(obs), 12.0 / 7.0, 1e-9);
}

TEST(MpcDp, PicksHighRateOnFastStableLink) {
  const VideoManifest m = exact_manifest();
  MpcDp dp;
  const PlaybackRecord record = run_playback(dp, m, constant_trace(4.8));
  int high = 0;
  for (std::size_t i = 8; i < record.chunks.size(); ++i) {
    if (record.chunks[i].bitrate_mbps >= 2.85) ++high;
  }
  EXPECT_GT(high, 35);
  EXPECT_NEAR(record.total_rebuffer_s, 0.0, 0.5);
}

TEST(MpcDp, PicksLowRateOnSlowLink) {
  const VideoManifest m = exact_manifest();
  MpcDp dp;
  const PlaybackRecord record = run_playback(dp, m, constant_trace(0.4));
  for (std::size_t i = 4; i < record.chunks.size(); ++i) {
    EXPECT_LE(record.chunks[i].bitrate_mbps, 0.75);
  }
}

// mpc-dp solves the same lookahead as RobustMpc by value iteration instead
// of Q^H enumeration; under QoE_lin on benign links the two must land in
// the same QoE neighborhood (the DP's buffer discretization allows small
// deviations, not a different operating point).
TEST(MpcDp, TracksRobustMpcQoeOnBenignLinks) {
  const VideoManifest m = exact_manifest();
  for (const double bw : {0.8, 1.6, 3.0, 4.8}) {
    RobustMpc mpc;
    MpcDp dp;
    const Trace t = constant_trace(bw);
    const PlaybackRecord a = run_playback(mpc, m, t);
    const PlaybackRecord b = run_playback(dp, m, t);
    // Within 15% of the enumerating planner's QoE (plus slack for the
    // near-zero crossings at low bandwidths).
    EXPECT_NEAR(b.total_qoe, a.total_qoe,
                0.15 * std::abs(a.total_qoe) + 5.0)
        << "bandwidth " << bw;
  }
}

TEST(MpcDp, PlansAgainstTheConstructedQoeModel) {
  // A model that hates smoothness changes must switch no more often than
  // the lin-planning default on an oscillating link.
  const VideoManifest m = exact_manifest();
  Trace t;
  for (int i = 0; i < 48; ++i) {
    t.append({4.0, i % 2 == 0 ? 4.0 : 1.2, 80.0, 0.0});
  }
  MpcDp lin_dp;
  SsimTableQoe::Params sticky;
  sticky.smoothness_penalty = 50.0;
  MpcDp sticky_dp{{}, std::make_unique<SsimTableQoe>(sticky)};
  const PlaybackRecord a = run_playback(lin_dp, m, t);
  const PlaybackRecord b = run_playback(sticky_dp, m, t);
  EXPECT_LE(b.quality_switches, a.quality_switches);
  EXPECT_EQ(sticky_dp.qoe().name(), "ssim");
}

TEST(MpcDp, ValidatesParamsAndRequiresBeginVideo) {
  EXPECT_THROW((MpcDp{{.horizon = 0}, std::make_unique<LinQoe>()}),
               std::invalid_argument);
  EXPECT_THROW((MpcDp{{.buffer_levels = 0}, std::make_unique<LinQoe>()}),
               std::invalid_argument);
  MpcDp dp;
  AbrObservation obs;
  EXPECT_THROW(dp.choose_quality(obs), std::logic_error);
}

// ---------------------------------------------------------------- optimal

TEST(OfflineOptimal, BeatsEveryProtocolOnRandomTraces) {
  const VideoManifest m = exact_manifest();
  netadv::trace::UniformRandomGenerator gen{{}};
  Rng rng{11};
  BufferBased bb;
  RobustMpc mpc;
  for (int i = 0; i < 5; ++i) {
    const Trace t = gen.generate(rng);
    const OptimalPlan plan = optimal_playback(m, t);
    const double bb_qoe = run_playback(bb, m, t).total_qoe;
    const double mpc_qoe = run_playback(mpc, m, t).total_qoe;
    // Small slack for DP buffer quantization.
    EXPECT_GE(plan.total_qoe + 0.5, bb_qoe) << "trace " << i;
    EXPECT_GE(plan.total_qoe + 0.5, mpc_qoe) << "trace " << i;
  }
}

TEST(OfflineOptimal, PlanQoeMatchesReplay) {
  const VideoManifest m = exact_manifest();
  const Trace t = constant_trace(2.0);
  const OptimalPlan plan = optimal_playback(m, t);
  ASSERT_EQ(plan.qualities.size(), m.num_chunks());

  // Replay the plan through the real simulator and recompute QoE.
  StreamingSession s{m};
  std::vector<double> bitrates;
  std::vector<double> rebuffers;
  for (std::size_t i = 0; i < plan.qualities.size(); ++i) {
    const DownloadResult r = s.download_next(plan.qualities[i], 2.0);
    bitrates.push_back(r.bitrate_mbps);
    rebuffers.push_back(r.rebuffer_s);
  }
  const double replay_qoe = total_qoe(bitrates, rebuffers);
  EXPECT_NEAR(plan.total_qoe, replay_qoe, 1.0);  // quantization slack
}

TEST(OfflineOptimal, SaturatesAtTopRateOnFastLink) {
  const VideoManifest m = exact_manifest();
  const Trace t = constant_trace(50.0);
  const OptimalPlan plan = optimal_playback(m, t);
  int top = 0;
  for (std::size_t q : plan.qualities) top += (q == 5) ? 1 : 0;
  EXPECT_GT(top, 40);
}

TEST(OptimalWindow, OptimalAtLeastAnyFixedPlan) {
  const VideoManifest m = exact_manifest();
  const std::vector<double> bw{1.0, 3.0, 0.9, 2.5};
  const double opt = optimal_window_qoe(m, 10, 8.0, 1.2, bw);
  Rng rng{13};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::size_t> plan(4);
    for (auto& q : plan) q = rng.index(6);
    const double fixed = window_qoe(m, 10, 8.0, 1.2, plan, bw);
    EXPECT_GE(opt + 1e-9, fixed);
  }
}

TEST(OptimalWindow, WindowQoeHandComputed) {
  const VideoManifest m = exact_manifest();
  // One chunk at quality 0 (1.2 Mbit) over 1.2 Mbps from a 4 s buffer:
  // dt = 1 s, no stall, qoe = 0.3 - |0.3 - 0.3| = 0.3.
  const std::vector<std::size_t> plan{0};
  const std::vector<double> bw{1.2};
  EXPECT_NEAR(window_qoe(m, 0, 4.0, 0.3, plan, bw), 0.3, 1e-9);
  // Same but from empty buffer: 1 s stall -> 0.3 - 4.3 = -4.0.
  EXPECT_NEAR(window_qoe(m, 0, 0.0, 0.3, plan, bw), -4.0, 1e-9);
}

TEST(OptimalWindow, ValidatesInputs) {
  const VideoManifest m;
  const std::vector<double> empty;
  EXPECT_THROW(optimal_window_qoe(m, 0, 0.0, 0.3, empty),
               std::invalid_argument);
  const std::vector<double> bad{-1.0};
  EXPECT_THROW(optimal_window_qoe(m, 0, 0.0, 0.3, bad), std::invalid_argument);
  const std::vector<std::size_t> plan{0};
  const std::vector<double> bw{1.0, 2.0};
  EXPECT_THROW(window_qoe(m, 0, 0.0, 0.3, plan, bw), std::invalid_argument);
}

TEST(OptimalWindow, RejectsNonFiniteBandwidthNamingTheIndex) {
  const VideoManifest m;
  const std::vector<std::size_t> plan{0, 0, 0};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 0.0}) {
    const std::vector<double> bw{2.0, 2.0, bad};
    try {
      optimal_window_qoe(m, 0, 0.0, 0.3, bw);
      FAIL() << "optimal_window_qoe accepted " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("bandwidths_mbps[2]"),
                std::string::npos)
          << e.what();
    }
    try {
      window_qoe(m, 0, 0.0, 0.3, plan, bw);
      FAIL() << "window_qoe accepted " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("bandwidths_mbps[2]"),
                std::string::npos)
          << e.what();
    }
  }
}

// r_opt as first written: a recursion that looks every chunk size and
// bitrate up per node. optimal_window_qoe must return the same bits.
double reference_best_window_qoe(const VideoManifest& manifest,
                                 std::size_t start_chunk, std::size_t depth,
                                 double buffer, double prev_bitrate,
                                 const std::vector<double>& bandwidths,
                                 double max_buffer_s) {
  const std::size_t chunk = start_chunk + depth;
  if (depth >= bandwidths.size() || chunk >= manifest.num_chunks()) return 0.0;
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t q = 0; q < manifest.num_qualities(); ++q) {
    const double dt =
        manifest.chunk_size_bits(chunk, q) / (bandwidths[depth] * 1e6);
    const double rebuffer = std::max(0.0, dt - buffer);
    const double buffer_after = std::min(
        std::max(0.0, buffer - dt) + manifest.chunk_duration_s(), max_buffer_s);
    const double bitrate = manifest.bitrate_mbps(q);
    const double here = chunk_qoe(bitrate, rebuffer, prev_bitrate);
    const double rest =
        reference_best_window_qoe(manifest, start_chunk, depth + 1,
                                  buffer_after, bitrate, bandwidths,
                                  max_buffer_s);
    best = std::max(best, here + rest);
  }
  return best;
}

TEST(OptimalWindow, BitwiseIdenticalToTheReferenceRecursion) {
  // A 16-rung ladder makes 4- and 5-chunk windows outgrow the search's
  // stack table, so its heap fallback is compared too.
  VideoManifest::Params wide;
  wide.bitrates_kbps.clear();
  for (int rung = 0; rung < 16; ++rung) {
    wide.bitrates_kbps.push_back(200.0 + 300.0 * rung);
  }
  struct Case {
    VideoManifest manifest;
    int trials;
    std::size_t max_window;
  };
  const std::vector<Case> cases{{exact_manifest(), 2000, 5},
                                {VideoManifest{}, 2000, 5},
                                {VideoManifest{wide}, 100, 4}};
  Rng rng{77};
  for (const Case& c : cases) {
    const VideoManifest& m = c.manifest;
    for (int trial = 0; trial < c.trials; ++trial) {
      // Start chunks biased toward the end of the video so truncated
      // windows (and windows past the end) are common.
      std::vector<double> bw(1 + rng.index(c.max_window));
      for (double& b : bw) b = random_bandwidth(rng);
      const std::size_t start = trial % 4 == 0
                                    ? m.num_chunks() - rng.index(7)
                                    : rng.index(m.num_chunks());
      const double buffer = trial % 8 == 0 ? 0.0 : rng.uniform(0.0, 60.0);
      const double prev = m.bitrate_mbps(rng.index(m.num_qualities()));
      const double max_buffer = trial % 3 == 0 ? 20.0 : 60.0;
      const double got =
          optimal_window_qoe(m, start, buffer, prev, bw, {}, max_buffer);
      const double expected =
          reference_best_window_qoe(m, start, 0, buffer, prev, bw, max_buffer);
      ASSERT_EQ(std::memcmp(&got, &expected, sizeof got), 0)
          << m.num_qualities() << " qualities, trial " << trial << ": " << got
          << " vs " << expected;
    }
  }
}

TEST(OptimalWindow, WindowPastVideoEndIsTruncated) {
  VideoManifest::Params p;
  p.num_chunks = 2;
  p.size_variation = 0.0;
  const VideoManifest m{p};
  const std::vector<double> bw{2.0, 2.0, 2.0, 2.0};
  // Only 2 chunks remain from chunk 0; should not throw.
  const double q = optimal_window_qoe(m, 0, 0.0, 0.3, bw);
  EXPECT_GT(q, -1e17);
}

// ---------------------------------------------------------------- runner

TEST(Runner, BandwidthForChunkClampsToLastSegment) {
  const Trace t = constant_trace(2.0, 3);
  EXPECT_DOUBLE_EQ(bandwidth_for_chunk(t, 0), 2.0);
  EXPECT_DOUBLE_EQ(bandwidth_for_chunk(t, 99), 2.0);
  const Trace empty;
  EXPECT_THROW(bandwidth_for_chunk(empty, 0), std::invalid_argument);
}

TEST(Runner, RecordsAreInternallyConsistent) {
  const VideoManifest m;
  BufferBased bb;
  const Trace t = constant_trace(2.0);
  const PlaybackRecord r = run_playback(bb, m, t);
  ASSERT_EQ(r.chunks.size(), m.num_chunks());
  double rebuf = 0.0;
  for (const auto& c : r.chunks) rebuf += c.rebuffer_s;
  EXPECT_NEAR(r.total_rebuffer_s, rebuf, 1e-9);
  EXPECT_NEAR(r.mean_chunk_qoe * static_cast<double>(m.num_chunks()),
              r.total_qoe, 1e-9);
  EXPECT_GT(r.mean_bitrate_mbps, 0.0);
}

TEST(Runner, HistoryWindowIsBounded) {
  // A protocol that asserts on the history length it sees.
  class Probe final : public AbrProtocol {
   public:
    std::string name() const override { return "probe"; }
    void begin_video(const VideoManifest&) override {}
    std::size_t choose_quality(const AbrObservation& obs) override {
      EXPECT_LE(obs.throughput_history_mbps.size(), 3u);
      EXPECT_LE(obs.download_time_history_s.size(), 3u);
      if (!obs.throughput_history_mbps.empty()) {
        max_seen = std::max(max_seen, obs.throughput_history_mbps.size());
      }
      return 0;
    }
    std::size_t max_seen = 0;
  };
  const VideoManifest m;
  Probe probe;
  run_playback(probe, m, constant_trace(2.0), {}, /*history_window=*/3);
  EXPECT_EQ(probe.max_seen, 3u);
}

TEST(Runner, QoePerTraceMatchesSingleRuns) {
  const VideoManifest m;
  BufferBased bb;
  const std::vector<Trace> traces{constant_trace(1.0), constant_trace(3.0)};
  const auto qoes = qoe_per_trace(bb, m, traces);
  ASSERT_EQ(qoes.size(), 2u);
  EXPECT_NEAR(qoes[0], run_playback(bb, m, traces[0]).mean_chunk_qoe, 1e-12);
  EXPECT_NEAR(qoes[1], run_playback(bb, m, traces[1]).mean_chunk_qoe, 1e-12);
  EXPECT_GT(qoes[1], qoes[0]);  // faster link, better QoE
}

TEST(Runner, FasterLinkNeverHurtsBb) {
  const VideoManifest m;
  BufferBased bb;
  double last = -1e18;
  for (double bw : {0.5, 1.0, 2.0, 4.0}) {
    const double qoe = run_playback(bb, m, constant_trace(bw)).total_qoe;
    EXPECT_GE(qoe, last - 1e-9);
    last = qoe;
  }
}

}  // namespace
