// Tests of the execution benchmark's own arithmetic.
#include "execbench/bench_stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace execbench {
namespace {

TEST(PercentileTest, NearestRankSelectsTheSampleAtOrAboveTheQuantile) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) {
    values.push_back(i);  // unsorted on purpose
  }
  EXPECT_EQ(Quantile(values, 0.5), 50.0);
  EXPECT_EQ(Quantile(values, 0.9), 90.0);
  EXPECT_EQ(Quantile(values, 1.0), 100.0);
  EXPECT_EQ(Quantile({7.0}, 0.9), 7.0);
  EXPECT_EQ(Quantile({1.0, 2.0, 3.0}, 0.5), 2.0);
}

TEST(PercentileTest, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10u);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9u);
  EXPECT_EQ(SamplesBeyond(101, 0.9), 10u);
  EXPECT_EQ(MinSamplesForTail(0.9, 10), 100u);
  EXPECT_EQ(MinSamplesForTail(0.5, 10), 20u);
  EXPECT_EQ(MinSamplesForTail(0.99, 10), 1000u);
  for (std::size_t n = 1; n < MinSamplesForTail(0.9, 10); ++n) {
    EXPECT_LT(SamplesBeyond(n, 0.9), 10u) << n;
  }
}

TEST(ChunkRateTest, ChunksAreWholeCycles) {
  EXPECT_EQ(ChunkRequests(1, 10), 10u);
  EXPECT_EQ(ChunkRequests(12, 10), 12u);
  EXPECT_EQ(ChunkRequests(24, 10), 24u);
  EXPECT_EQ(ChunkRequests(4, 10), 12u);
  EXPECT_EQ(ChunkRequests(5, 10), 10u);
}

TEST(ChunkRateTest, MedianOfChunkRatesIgnoresOneSlowChunk) {
  // Five chunks of two requests doing 10 units each in 1 s, except the
  // fourth chunk, which a hiccup stretches to 10 s; a trailing partial chunk
  // is ignored.
  std::vector<double> work(11, 10.0);
  std::vector<double> seconds(11, 1.0);
  seconds[6] = 9.0;
  seconds[10] = 100.0;
  EXPECT_DOUBLE_EQ(MedianChunkRate(work, seconds, 2), 10.0);
  // The whole-window rate, by contrast, falls to 100 / 18.
  EXPECT_DOUBLE_EQ(MedianChunkRate(work, seconds, 10), 100.0 / 18.0);
  EXPECT_EQ(MedianChunkRate(work, seconds, 12), 0.0);
  EXPECT_EQ(MedianChunkRate({}, {}, 2), 0.0);
}

TEST(SpanTest, SelfTimeSubtractsDirectChildrenOnly) {
  SpanRecorder recorder;
  const int request = recorder.Begin("request", 7);
  const int dispatch = recorder.Begin("dispatch", 7);
  const int pad = recorder.Begin("pad", 7);
  recorder.End(pad);
  const int run = recorder.Begin("run", 7);
  recorder.End(run);
  recorder.End(dispatch);
  recorder.End(request);

  const std::vector<Span>& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[dispatch].parent, request);
  EXPECT_EQ(spans[pad].parent, dispatch);
  EXPECT_EQ(spans[run].parent, dispatch);
  EXPECT_EQ(spans[pad].request, 7);

  const std::vector<std::int64_t> self = SelfTimesNs(recorder.spans());
  auto duration = [&](int i) { return spans[i].end_ns - spans[i].start_ns; };
  EXPECT_EQ(self[pad], duration(pad));
  EXPECT_EQ(self[run], duration(run));
  EXPECT_EQ(self[dispatch], duration(dispatch) - duration(pad) - duration(run));
  EXPECT_EQ(self[request], duration(request) - duration(dispatch));
  std::int64_t total = 0;
  for (std::int64_t s : self) {
    EXPECT_GE(s, 0);
    total += s;
  }
  EXPECT_EQ(total, duration(request));
}

TEST(SpanTest, OverlappingChildrenAreCountedOnce) {
  // Children [10,40) and [30,60) overlap inside a parent [0,100): together
  // they cover 50 ns of it. A grandchild does not count against the parent.
  std::vector<Span> spans(4);
  spans[0] = {"parent", 0, 100, -1, -1};
  spans[1] = {"a", 10, 40, 0, -1};
  spans[2] = {"b", 30, 60, 0, -1};
  spans[3] = {"grandchild", 35, 55, 2, -1};
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 20);
}

TEST(ScopedSpanTest, NullRecorderRecordsNothing) {
  { ScopedSpan span(nullptr, "untraced"); }
  SpanRecorder recorder;
  {
    ScopedSpan outer(&recorder, "outer", 3);
    ScopedSpan inner(&recorder, "inner", 3);
  }
  ASSERT_EQ(recorder.spans().size(), 2u);
  EXPECT_EQ(recorder.spans()[1].parent, 0);
  EXPECT_LE(recorder.spans()[1].end_ns, recorder.spans()[0].end_ns);
}

TEST(ShapeRequestTest, OneSeedGivesTheSameSequenceTwice) {
  const std::vector<ShapeRequest> a = LogUniformShapeRequests(42, 24, 9, 64, 12);
  const std::vector<ShapeRequest> b = LogUniformShapeRequests(42, 24, 9, 64, 12);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, LogUniformShapeRequests(43, 24, 9, 64, 12));
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i].seq, 9);
    EXPECT_LE(a[i].seq, 64);
    EXPECT_EQ(a[i].layer, static_cast<int>(i % 12));
  }
}

TEST(ShapeRequestTest, DrawsAreLogUniform) {
  // Under log-uniform [9, 64], log(17/9) / log(65/9) = 32.2% of draws land
  // in [9, 16], against 8 / 56 = 14% under a uniform draw.
  const std::vector<ShapeRequest> draws = LogUniformShapeRequests(7, 20000, 9, 64, 12);
  int small = 0;
  for (const ShapeRequest& r : draws) {
    small += r.seq <= 16 ? 1 : 0;
  }
  EXPECT_NEAR(small / 20000.0, std::log(17.0 / 9.0) / std::log(65.0 / 9.0), 1e-3);
}

TEST(ShapeRequestTest, EverySeedCarriesTheSameBucketMix) {
  // 24 requests over the pow2 buckets s16 / s32 / s64 split 7-9 each for
  // any seed, so the median request always lands in s32 and p90 in s64.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    int counts[3] = {0, 0, 0};
    for (const ShapeRequest& r : LogUniformShapeRequests(seed, 24, 9, 64, 12)) {
      ++counts[r.seq <= 16 ? 0 : r.seq <= 32 ? 1 : 2];
    }
    for (int count : counts) {
      EXPECT_GE(count, 7) << "seed " << seed;
      EXPECT_LE(count, 9) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace execbench
