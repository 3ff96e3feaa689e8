// Property tests for the metrics registry and the span tracer: concurrent
// increments are lossless, histogram invariants hold for arbitrary value
// streams, Snapshot() is idempotent, and the trace buffer is a hard bound
// with exact drop accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace mdc {
namespace {

TEST(MetricsTest, ConcurrentIncrementsSumExactly) {
  metrics::ResetForTest();
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  metrics::Counter& counter = metrics::GetCounter("test.concurrent");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(metrics::Snapshot().counters.at("test.concurrent"),
            kThreads * kPerThread);
}

TEST(MetricsTest, ConcurrentVariableDeltasSumExactly) {
  metrics::ResetForTest();
  constexpr int kThreads = 6;
  metrics::Counter& counter = metrics::GetCounter("test.deltas");

  std::atomic<uint64_t> expected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &expected, t] {
      std::mt19937_64 rng(1000 + t);
      uint64_t local = 0;
      for (int i = 0; i < 20000; ++i) {
        uint64_t delta = rng() % 17;
        counter.Increment(delta);
        local += delta;
      }
      expected.fetch_add(local);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(metrics::Snapshot().counters.at("test.deltas"), expected.load());
}

TEST(MetricsTest, GetCounterInternsByName) {
  metrics::ResetForTest();
  metrics::Counter& a = metrics::GetCounter("test.interned");
  metrics::Counter& b = metrics::GetCounter("test.interned");
  EXPECT_EQ(&a, &b);
}

TEST(MetricsTest, SnapshotSurvivesThreadExit) {
  metrics::ResetForTest();
  // A dying thread must fold its shard into the retired totals; the events
  // it recorded cannot vanish with its thread-locals.
  std::thread worker(
      [] { metrics::GetCounter("test.retired").Increment(123); });
  worker.join();
  EXPECT_EQ(metrics::Snapshot().counters.at("test.retired"), 123u);
}

TEST(MetricsTest, SnapshotIsIdempotent) {
  metrics::ResetForTest();
  metrics::GetCounter("test.idem").Increment(7);
  metrics::GetGauge("test.idem_gauge").Set(-3);
  metrics::GetHistogram("test.idem_hist").Observe(42);

  metrics::MetricsSnapshot first = metrics::Snapshot();
  metrics::MetricsSnapshot second = metrics::Snapshot();
  EXPECT_EQ(first.counters, second.counters);
  EXPECT_EQ(first.gauges, second.gauges);
  EXPECT_EQ(first.histograms, second.histograms);
}

TEST(MetricsTest, HistogramBucketsSumToCountForRandomStream) {
  metrics::ResetForTest();
  metrics::Histogram& hist = metrics::GetHistogram("test.hist_random");

  std::mt19937_64 rng(4242);
  uint64_t expected_count = 0;
  uint64_t expected_sum = 0;
  for (int i = 0; i < 10000; ++i) {
    // Exercise every magnitude, including 0 and values beyond the last
    // bucket's lower bound.
    uint64_t value = rng() >> (rng() % 64);
    hist.Observe(value);
    ++expected_count;
    expected_sum += value;
  }

  metrics::HistogramSnapshot snap =
      metrics::Snapshot().histograms.at("test.hist_random");
  ASSERT_EQ(snap.buckets.size(), metrics::kHistogramBuckets);
  uint64_t bucket_total = 0;
  for (uint64_t bucket : snap.buckets) bucket_total += bucket;
  EXPECT_EQ(bucket_total, expected_count);
  EXPECT_EQ(snap.count, expected_count);
  EXPECT_EQ(snap.sum, expected_sum);
}

TEST(MetricsTest, HistogramBucketLayout) {
  // Bucket 0 holds zero; bucket b holds [2^(b-1), 2^b); the last bucket
  // absorbs the tail.
  EXPECT_EQ(metrics::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(metrics::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(metrics::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(metrics::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(metrics::Histogram::BucketOf(4), 3u);
  for (uint64_t value = 1; value != 0; value <<= 1) {
    size_t bucket = metrics::Histogram::BucketOf(value);
    EXPECT_LT(bucket, metrics::kHistogramBuckets);
    EXPECT_GE(metrics::Histogram::BucketOf(value + (value >> 1)), bucket);
  }
  EXPECT_EQ(metrics::Histogram::BucketOf(~uint64_t{0}),
            metrics::kHistogramBuckets - 1);
}

TEST(MetricsTest, ConcurrentHistogramObservationsAreLossless) {
  metrics::ResetForTest();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25000;
  metrics::Histogram& hist = metrics::GetHistogram("test.hist_mt");

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      std::mt19937_64 rng(77 + t);
      for (int i = 0; i < kPerThread; ++i) hist.Observe(rng() % 100000);
    });
  }
  for (std::thread& thread : threads) thread.join();

  metrics::HistogramSnapshot snap =
      metrics::Snapshot().histograms.at("test.hist_mt");
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  metrics::ResetForTest();
  metrics::Gauge& gauge = metrics::GetGauge("test.gauge");
  gauge.Set(10);
  gauge.Add(5);
  gauge.Add(-12);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(metrics::Snapshot().gauges.at("test.gauge"), 3);
}

TEST(MetricsTest, MergeCountersAddsToExistingTotals) {
  metrics::ResetForTest();
  metrics::GetCounter("svc.test.jobs_ok").Increment(4);
  metrics::MergeCounters({{"svc.test.jobs_ok", 10}, {"svc.test.resumes", 1}});
  metrics::MetricsSnapshot snap = metrics::Snapshot();
  EXPECT_EQ(snap.counters.at("svc.test.jobs_ok"), 14u);
  EXPECT_EQ(snap.counters.at("svc.test.resumes"), 1u);
}

TEST(MetricsTest, ResetZeroesEverything) {
  metrics::ResetForTest();
  metrics::GetCounter("test.reset").Increment(9);
  metrics::GetGauge("test.reset_gauge").Set(9);
  metrics::GetHistogram("test.reset_hist").Observe(9);
  metrics::ResetForTest();

  metrics::MetricsSnapshot snap = metrics::Snapshot();
  EXPECT_EQ(snap.counters.at("test.reset"), 0u);
  EXPECT_EQ(snap.gauges.at("test.reset_gauge"), 0);
  EXPECT_EQ(snap.histograms.at("test.reset_hist").count, 0u);
}

TEST(MetricsTest, DeterministicCountersTextFiltersByPrefix) {
  metrics::ResetForTest();
  metrics::GetCounter("search.test.alpha").Increment(2);
  metrics::GetCounter("run.test.beta").Increment(3);
  metrics::GetCounter("cmp.test.gamma").Increment(4);
  metrics::GetCounter("eval.test.excluded").Increment(5);
  metrics::GetCounter("pool.test.excluded").Increment(6);
  // The batch runner's prefix retired with it.
  metrics::GetCounter("batch.test.retired").Increment(7);

  std::string text = metrics::Snapshot().DeterministicCountersText();
  EXPECT_NE(text.find("search.test.alpha=2\n"), std::string::npos);
  EXPECT_NE(text.find("run.test.beta=3\n"), std::string::npos);
  EXPECT_NE(text.find("cmp.test.gamma=4\n"), std::string::npos);
  EXPECT_EQ(text.find("eval.test.excluded"), std::string::npos);
  EXPECT_EQ(text.find("pool.test.excluded"), std::string::npos);
  EXPECT_EQ(text.find("batch.test.retired"), std::string::npos);
}

TEST(MetricsTest, ToJsonContainsAllSections) {
  metrics::ResetForTest();
  metrics::GetCounter("test.json\"quoted").Increment(1);
  std::string json = metrics::Snapshot().ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Quotes in instrument names must be escaped, not emitted raw.
  EXPECT_NE(json.find("test.json\\\"quoted"), std::string::npos);
}

TEST(TraceTest, DisabledTracingRecordsNothing) {
  trace::Enable(16);
  trace::Disable();
  size_t before = trace::Spans().size();
  { TRACE_SPAN("test/disabled"); }
  EXPECT_EQ(trace::Spans().size(), before);
}

TEST(TraceTest, BufferNeverExceedsCapacityAndCountsDrops) {
  constexpr size_t kCapacity = 32;
  constexpr size_t kEmitted = 100;
  trace::Enable(kCapacity);
  for (size_t i = 0; i < kEmitted; ++i) {
    TRACE_SPAN("test/bounded");
  }
  trace::Disable();

  std::vector<trace::SpanRecord> spans = trace::Spans();
  EXPECT_LE(spans.size(), kCapacity);
  EXPECT_EQ(spans.size() + trace::Dropped(), kEmitted);
}

TEST(TraceTest, NestedSpansLinkToParent) {
  trace::Enable(16);
  {
    TRACE_SPAN("test/outer");
    { TRACE_SPAN("test/inner"); }
  }
  trace::Disable();

  std::vector<trace::SpanRecord> spans = trace::Spans();
  ASSERT_EQ(spans.size(), 2u);
  // Spans record on destruction, so the inner span completes first.
  EXPECT_STREQ(spans[0].name, "test/inner");
  EXPECT_STREQ(spans[1].name, "test/outer");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_id, 0u);
  EXPECT_GE(spans[1].duration_us, spans[0].duration_us);
}

TEST(TraceTest, EnableRestartsCleanly) {
  trace::Enable(16);
  { TRACE_SPAN("test/first"); }
  trace::Enable(16);  // Restart: clears buffer, drops, and the clock.
  { TRACE_SPAN("test/second"); }
  trace::Disable();

  std::vector<trace::SpanRecord> spans = trace::Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test/second");
  EXPECT_EQ(trace::Dropped(), 0u);
}

TEST(TraceTest, ChromeTraceJsonHasOneEventPerSpan) {
  trace::Enable(16);
  { TRACE_SPAN("test/json_a"); }
  { TRACE_SPAN("test/json_b"); }
  trace::Disable();

  std::string json = trace::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"test/json_a\""), std::string::npos);
  EXPECT_NE(json.find("\"test/json_b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

}  // namespace
}  // namespace mdc
