// Tracer: ring eviction, exporter formats (JSONL and Chrome trace,
// sorted keys), and the ScopedTimer bridge into latency histograms.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ppr::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

#if !defined(PPR_OBS_OFF)

TEST(TracerTest, RecordsInstantAndCompleteEvents) {
  Tracer tracer;
  tracer.Instant("hello", "test", {{"n", 7}});
  tracer.Complete("work", "test", /*ts_ns=*/100, /*dur_ns=*/50);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "hello");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_GT(events[0].ts_ns, 0u);  // defaulted to now
  EXPECT_GT(events[0].tid, 0u);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "n");
  EXPECT_EQ(events[0].args[0].second, 7);
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_EQ(events[1].ts_ns, 100u);
  EXPECT_EQ(events[1].dur_ns, 50u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(TracerTest, RingEvictsOldestAndCountsDropped) {
  Tracer tracer(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.Instant(std::string("e") + std::to_string(i), "test");
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.Events();
  EXPECT_EQ(events.front().name, "e6");  // oldest survivor
  EXPECT_EQ(events.back().name, "e9");
}

TEST(TracerTest, JsonlHasSortedKeysPerLine) {
  Tracer tracer;
  tracer.Complete("work", "cat\"egory", /*ts_ns=*/2000, /*dur_ns=*/1500,
                  {{"z", 1}, {"a", 2}});
  const std::string path = TempPath("trace_test.jsonl");
  ASSERT_TRUE(tracer.WriteJsonl(path));
  const std::string line = ReadFile(path);
  EXPECT_EQ(line,
            "{\"args\":{\"a\":2,\"z\":1},\"cat\":\"cat\\\"egory\","
            "\"dur\":1500,\"name\":\"work\",\"ph\":\"X\",\"pid\":1,"
            "\"tid\":1,\"ts\":2000}\n");
}

TEST(TracerTest, ChromeTraceWrapsEventsInMicroseconds) {
  Tracer tracer;
  tracer.Complete("work", "test", /*ts_ns=*/2000, /*dur_ns=*/1500);
  tracer.Instant("mark", "test");
  const std::string path = TempPath("trace_test.json");
  ASSERT_TRUE(tracer.WriteChromeTrace(path));
  const std::string doc = ReadFile(path);
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(doc.find("\"dur\":1.500"), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":2.000"), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");
}

TEST(ScopedTimerTest, FeedsHistogramAndTracer) {
  MetricRegistry registry;
  Tracer tracer;
  {
    ScopedTimer timer(registry.GetHistogram("op_ns"), &tracer, "op", "test",
                      {{"k", 1}});
    // Some measurable work.
    volatile int sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  const Snapshot snap = registry.TakeSnapshot();
  EXPECT_EQ(snap.histograms.at("op_ns").count, 1u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].name, "op");
  EXPECT_EQ(events[0].dur_ns, snap.histograms.at("op_ns").sum);
}

#else  // PPR_OBS_OFF

TEST(TracerTest, CompiledOutTracerStaysEmptyButExportsValidDocs) {
  Tracer tracer;
  tracer.Instant("hello", "test");
  tracer.Complete("work", "test", 100, 50);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
  const std::string jsonl = TempPath("trace_off.jsonl");
  const std::string chrome = TempPath("trace_off.json");
  ASSERT_TRUE(tracer.WriteJsonl(jsonl));
  ASSERT_TRUE(tracer.WriteChromeTrace(chrome));
  EXPECT_EQ(ReadFile(jsonl), "");
  EXPECT_EQ(ReadFile(chrome),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

#endif  // PPR_OBS_OFF

}  // namespace
}  // namespace ppr::obs
