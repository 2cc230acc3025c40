// Tests for the trace substrate: the Trace container, CSV round-trips, and
// the statistical character of each synthetic generator.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "trace/generators.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace netadv::trace;
using netadv::util::Rng;

Trace make_simple_trace() {
  return Trace{{
      {1.0, 2.0, 50.0, 0.0},
      {2.0, 4.0, 50.0, 0.01},
      {1.0, 1.0, 60.0, 0.0},
  }};
}

TEST(Trace, DurationAndMeanBandwidth) {
  const Trace t = make_simple_trace();
  EXPECT_DOUBLE_EQ(t.total_duration_s(), 4.0);
  // (2*1 + 4*2 + 1*1) / 4 = 11/4
  EXPECT_DOUBLE_EQ(t.mean_bandwidth_mbps(), 2.75);
}

TEST(Trace, AtTimeSelectsSegment) {
  const Trace t = make_simple_trace();
  EXPECT_DOUBLE_EQ(t.at_time(0.5).bandwidth_mbps, 2.0);
  EXPECT_DOUBLE_EQ(t.at_time(1.5).bandwidth_mbps, 4.0);
  EXPECT_DOUBLE_EQ(t.at_time(3.5).bandwidth_mbps, 1.0);
  // Past the end clamps to the final segment (Mahimahi-style replay).
  EXPECT_DOUBLE_EQ(t.at_time(100.0).bandwidth_mbps, 1.0);
}

TEST(Trace, AtTimeOnEmptyThrows) {
  const Trace t;
  EXPECT_THROW(t.at_time(0.0), std::logic_error);
}

TEST(Trace, BandwidthTotalVariation) {
  const Trace t = make_simple_trace();
  // |4-2| + |1-4| = 5
  EXPECT_DOUBLE_EQ(t.bandwidth_total_variation(), 5.0);
}

TEST(Trace, CsvRoundTrip) {
  const Trace t = make_simple_trace();
  const std::string path =
      (std::filesystem::temp_directory_path() / "netadv_trace_test.csv").string();
  save_trace(t, path);
  const Trace loaded = load_trace(path);
  ASSERT_EQ(loaded.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].duration_s, t[i].duration_s);
    EXPECT_DOUBLE_EQ(loaded[i].bandwidth_mbps, t[i].bandwidth_mbps);
    EXPECT_DOUBLE_EQ(loaded[i].latency_ms, t[i].latency_ms);
    EXPECT_DOUBLE_EQ(loaded[i].loss_rate, t[i].loss_rate);
  }
  std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/trace.csv"), std::runtime_error);
}

// ---------------------------------------------------------- load validation

/// Write `body` under a per-test temp name and return the path.
std::string write_temp_csv(const std::string& name, const std::string& body) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  std::ofstream{path} << body;
  return path;
}

/// Loading `path` must throw an error naming the path, the row and the field.
template <typename Load>
void expect_rejected(Load load, const std::string& path, const char* row,
                     const char* field) {
  try {
    load(path);
    ADD_FAILURE() << "accepted " << path;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(row), std::string::npos) << what;
    EXPECT_NE(what.find(field), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

const char* kTraceHeader = "duration_s,bandwidth_mbps,latency_ms,loss_rate\n";

TEST(TraceLoad, RejectsNanDuration) {
  expect_rejected(load_trace,
                  write_temp_csv("netadv_bad_nan_duration.csv",
                                 std::string{kTraceHeader} +
                                     "1,2,50,0\nnan,2,50,0\n"),
                  "row 2", "duration_s");
}

TEST(TraceLoad, RejectsNanBandwidth) {
  expect_rejected(load_trace,
                  write_temp_csv("netadv_bad_nan_bandwidth.csv",
                                 std::string{kTraceHeader} + "1,nan,50,0\n"),
                  "row 1", "bandwidth_mbps");
}

TEST(TraceLoad, RejectsLossAboveOne) {
  expect_rejected(load_trace,
                  write_temp_csv("netadv_bad_loss.csv",
                                 std::string{kTraceHeader} +
                                     "1,2,50,0\n1,2,50,0\n1,2,50,1.5\n"),
                  "row 3", "loss_rate");
}

TEST(TraceLoad, RejectsNegativeDuration) {
  expect_rejected(load_trace,
                  write_temp_csv("netadv_bad_negative_duration.csv",
                                 std::string{kTraceHeader} + "-1,2,50,0\n"),
                  "row 1", "duration_s");
}

TEST(TraceLoad, RejectsEveryOtherOutOfRangeField) {
  const struct {
    const char* row;
    const char* field;
  } cases[] = {
      {"0,2,50,0", "duration_s"},      {"inf,2,50,0", "duration_s"},
      {"1,-0.5,50,0", "bandwidth_mbps"}, {"1,inf,50,0", "bandwidth_mbps"},
      {"1,2,-1,0", "latency_ms"},      {"1,2,nan,0", "latency_ms"},
      {"1,2,50,-0.1", "loss_rate"},    {"1,2,50,nan", "loss_rate"},
  };
  for (const auto& c : cases) {
    expect_rejected(load_trace,
                    write_temp_csv("netadv_bad_field.csv",
                                   std::string{kTraceHeader} + c.row + "\n"),
                    "row 1", c.field);
  }
}

TEST(TraceLoad, AcceptsBoundaryValues) {
  // Zero bandwidth (an outage), zero latency and loss at either end of
  // [0, 1] are legal conditions.
  const std::string path = write_temp_csv(
      "netadv_boundary_trace.csv",
      std::string{kTraceHeader} + "0.5,0,0,0\n0.5,3,10,1\n");
  const Trace t = load_trace(path);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t[0].bandwidth_mbps, 0.0);
  EXPECT_DOUBLE_EQ(t[1].loss_rate, 1.0);
  std::remove(path.c_str());
}

TEST(TraceLoad, TraceSetRejectsBadSegmentsAndIndices) {
  const std::string header =
      "trace,duration_s,bandwidth_mbps,latency_ms,loss_rate\n";
  expect_rejected(load_trace_set,
                  write_temp_csv("netadv_bad_set_duration.csv",
                                 header + "0,1,2,50,0\n1,nan,2,50,0\n"),
                  "row 2", "duration_s");
  expect_rejected(load_trace_set,
                  write_temp_csv("netadv_bad_set_loss.csv",
                                 header + "0,1,2,50,1.5\n"),
                  "row 1", "loss_rate");
  expect_rejected(load_trace_set,
                  write_temp_csv("netadv_bad_set_index.csv",
                                 header + "nan,1,2,50,0\n"),
                  "row 1", "trace");
}

// ---------------------------------------------------------------- generators

TEST(UniformRandomGenerator, StaysInBounds) {
  UniformRandomGenerator::Params p;
  p.segments = 200;
  p.bandwidth_min_mbps = 0.8;
  p.bandwidth_max_mbps = 4.8;
  UniformRandomGenerator gen{p};
  Rng rng{61};
  const Trace t = gen.generate(rng);
  ASSERT_EQ(t.size(), 200u);
  for (const auto& s : t.segments()) {
    EXPECT_GE(s.bandwidth_mbps, 0.8);
    EXPECT_LE(s.bandwidth_mbps, 4.8);
    EXPECT_DOUBLE_EQ(s.duration_s, 4.0);
  }
}

TEST(UniformRandomGenerator, MeanIsMidRange) {
  UniformRandomGenerator::Params p;
  p.segments = 5000;
  UniformRandomGenerator gen{p};
  Rng rng{67};
  const Trace t = gen.generate(rng);
  EXPECT_NEAR(t.mean_bandwidth_mbps(), (0.8 + 4.8) / 2.0, 0.1);
}

TEST(UniformRandomGenerator, RejectsBadParams) {
  UniformRandomGenerator::Params p;
  p.bandwidth_min_mbps = 4.0;
  p.bandwidth_max_mbps = 1.0;
  EXPECT_THROW(UniformRandomGenerator{p}, std::invalid_argument);
}

TEST(FccLikeGenerator, IsSmootherThanUniform) {
  // The broadband model holds levels; its per-segment variation should be
  // far below an i.i.d. uniform process over the same range.
  FccLikeGenerator fcc{{}};
  UniformRandomGenerator uniform{{}};
  Rng rng{71};
  double fcc_tv = 0.0;
  double uni_tv = 0.0;
  for (int i = 0; i < 50; ++i) {
    fcc_tv += fcc.generate(rng).bandwidth_total_variation();
    uni_tv += uniform.generate(rng).bandwidth_total_variation();
  }
  EXPECT_LT(fcc_tv, 0.5 * uni_tv);
}

TEST(FccLikeGenerator, StaysInBounds) {
  FccLikeGenerator gen{{}};
  Rng rng{73};
  for (int i = 0; i < 20; ++i) {
    const Trace t = gen.generate(rng);
    for (const auto& s : t.segments()) {
      EXPECT_GE(s.bandwidth_mbps, 0.8);
      EXPECT_LE(s.bandwidth_mbps, 4.8);
      EXPECT_DOUBLE_EQ(s.loss_rate, 0.0);
    }
  }
}

TEST(Hsdpa3gLikeGenerator, IsHarderThanBroadband) {
  // The 3G model must have lower mean bandwidth and deeper dips — that gap is
  // exactly what Figure 4's cross-dataset cells rely on.
  FccLikeGenerator fcc{{}};
  Hsdpa3gLikeGenerator tg{{}};
  Rng rng{79};
  netadv::util::RunningStat fcc_bw;
  netadv::util::RunningStat tg_bw;
  double tg_min = 1e9;
  for (int i = 0; i < 50; ++i) {
    fcc_bw.add(fcc.generate(rng).mean_bandwidth_mbps());
    const Trace t = tg.generate(rng);
    tg_bw.add(t.mean_bandwidth_mbps());
    for (const auto& s : t.segments()) tg_min = std::min(tg_min, s.bandwidth_mbps);
  }
  EXPECT_LT(tg_bw.mean(), fcc_bw.mean());
  EXPECT_LT(tg_min, 0.5);  // deep dips exist
}

TEST(Hsdpa3gLikeGenerator, StaysInBounds) {
  Hsdpa3gLikeGenerator gen{{}};
  Rng rng{83};
  for (int i = 0; i < 20; ++i) {
    const Trace t = gen.generate(rng);
    for (const auto& s : t.segments()) {
      EXPECT_GE(s.bandwidth_mbps, 0.2);
      EXPECT_LE(s.bandwidth_mbps, 4.8);
    }
  }
}

TEST(MarkovGenerator, VisitsAllStates) {
  std::vector<MarkovGenerator::State> states{
      {1.0, 50.0, 0.0}, {3.0, 50.0, 0.0}};
  std::vector<std::vector<double>> transition{{0.5, 0.5}, {0.5, 0.5}};
  MarkovGenerator gen{states, transition, 500, 1.0};
  Rng rng{89};
  const Trace t = gen.generate(rng);
  int low = 0;
  int high = 0;
  for (const auto& s : t.segments()) {
    if (s.bandwidth_mbps < 2.0) ++low;
    else ++high;
  }
  EXPECT_GT(low, 100);
  EXPECT_GT(high, 100);
}

TEST(MarkovGenerator, ValidatesTransitionMatrix) {
  std::vector<MarkovGenerator::State> states{{1.0, 50.0, 0.0}};
  EXPECT_THROW(
      (MarkovGenerator{states, {{0.5}}, 10, 1.0}),  // row sums to 0.5
      std::invalid_argument);
  EXPECT_THROW((MarkovGenerator{states, {{1.0}, {1.0}}, 10, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((MarkovGenerator{{}, {}, 10, 1.0}), std::invalid_argument);
}

TEST(MarkovGenerator, StickyChainHoldsState) {
  std::vector<MarkovGenerator::State> states{
      {1.0, 50.0, 0.0}, {3.0, 50.0, 0.0}};
  std::vector<std::vector<double>> transition{{0.99, 0.01}, {0.01, 0.99}};
  MarkovGenerator gen{states, transition, 300, 1.0};
  Rng rng{97};
  const Trace t = gen.generate(rng);
  int switches = 0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i].bandwidth_mbps != t[i - 1].bandwidth_mbps) ++switches;
  }
  EXPECT_LT(switches, 30);
}

TEST(TraceGenerator, GenerateManyProducesDistinctTraces) {
  UniformRandomGenerator gen{{}};
  Rng rng{101};
  const auto traces = gen.generate_many(5, rng);
  ASSERT_EQ(traces.size(), 5u);
  EXPECT_NE(traces[0][0].bandwidth_mbps, traces[1][0].bandwidth_mbps);
}

}  // namespace
