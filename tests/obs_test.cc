// Observability subsystem tests: metrics registry exactness under
// concurrency, histogram bucket semantics, tracer span nesting/parenting,
// logger determinism under a simulated clock, and the shared JSON writer.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/sim_clock.h"
#include "common/thread_pool.h"
#include "obs/json_reader.h"
#include "obs/json_writer.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace cloudviews {
namespace obs {
namespace {

// --- Counters / gauges ------------------------------------------------------

TEST(ObsMetricsTest, CounterExactUnderConcurrentIncrements) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(ObsMetricsTest, CounterAddAndReset) {
  Counter counter;
  counter.Add(5);
  counter.Add(37);
  EXPECT_EQ(counter.Value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(ObsMetricsTest, GaugeSetAndAdd) {
  Gauge gauge;
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.Set(100);
  EXPECT_EQ(gauge.Value(), 100);
}

// --- Histograms -------------------------------------------------------------

TEST(ObsMetricsTest, HistogramBucketBoundaries) {
  Histogram hist({10.0, 100.0, 1000.0});
  // A sample lands in the FIRST bucket whose upper bound is >= the value.
  hist.Observe(0.0);     // -> bucket 0 (le=10)
  hist.Observe(10.0);    // -> bucket 0 (boundary is inclusive)
  hist.Observe(10.5);    // -> bucket 1 (le=100)
  hist.Observe(100.0);   // -> bucket 1
  hist.Observe(999.0);   // -> bucket 2 (le=1000)
  hist.Observe(1000.5);  // -> overflow
  Histogram::Snapshot snap = hist.GetSnapshot();
  ASSERT_EQ(snap.upper_bounds.size(), 3u);
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 2u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);  // overflow
  EXPECT_EQ(snap.count, 6u);
  EXPECT_NEAR(snap.sum, 0.0 + 10.0 + 10.5 + 100.0 + 999.0 + 1000.5, 1e-9);
}

TEST(ObsMetricsTest, HistogramConcurrentObserves) {
  Histogram hist({1.0, 2.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.Observe(1.5);
    });
  }
  for (std::thread& t : threads) t.join();
  Histogram::Snapshot snap = hist.GetSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.bucket_counts[1], snap.count);
  EXPECT_NEAR(snap.sum, 1.5 * static_cast<double>(snap.count),
              1e-6 * snap.sum);
}

// --- Registry ---------------------------------------------------------------

TEST(ObsMetricsTest, RegistryReturnsSameInstrumentForSameName) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& a = registry.counter("obs_test.registry.same");
  Counter& b = registry.counter("obs_test.registry.same");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
  a.Reset();
}

TEST(ObsMetricsTest, SnapshotTextAndJsonCoverAllInstrumentKinds) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("obs_test.snapshot.counter").Add(3);
  registry.gauge("obs_test.snapshot.gauge").Set(-7);
  registry.histogram("obs_test.snapshot.hist_us", {10.0, 100.0}).Observe(42.0);

  std::string text = registry.SnapshotText();
  EXPECT_NE(text.find("obs_test.snapshot.counter 3"), std::string::npos);
  EXPECT_NE(text.find("obs_test.snapshot.gauge -7"), std::string::npos);
  EXPECT_NE(text.find("obs_test.snapshot.hist_us_count 1"),
            std::string::npos);

  std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("\"obs_test.snapshot.counter\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.snapshot.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test.snapshot.hist_us\""), std::string::npos);
  // Crude balance check: the document opens and closes as one object.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  registry.counter("obs_test.snapshot.counter").Reset();
  registry.gauge("obs_test.snapshot.gauge").Reset();
  registry.histogram("obs_test.snapshot.hist_us", {}).Reset();
}

// --- Tracer -----------------------------------------------------------------

class ObsTracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Enable();
    Tracer::Global().Clear();
  }
  void TearDown() override {
    Tracer::Global().Disable();
    Tracer::Global().Clear();
  }

  static const TraceEvent* Find(const std::vector<TraceEvent>& events,
                                const std::string& name) {
    for (const TraceEvent& e : events) {
      if (e.name == name) return &e;
    }
    return nullptr;
  }
};

TEST_F(ObsTracerTest, NestedSpansRecordParentageAndDepth) {
  {
    Span outer("outer", "test");
    {
      Span middle("middle", "test");
      Span inner("inner", "test");
      inner.Arg("k", int64_t{7});
    }
  }
  std::vector<TraceEvent> events = Tracer::Global().Collect();
  const TraceEvent* outer = Find(events, "outer");
  const TraceEvent* middle = Find(events, "middle");
  const TraceEvent* inner = Find(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(middle->parent_id, outer->id);
  EXPECT_EQ(middle->depth, 1);
  EXPECT_EQ(inner->parent_id, middle->id);
  EXPECT_EQ(inner->depth, 2);
  // All on the same thread.
  EXPECT_EQ(outer->tid, middle->tid);
  EXPECT_EQ(middle->tid, inner->tid);
  // Temporal containment: children start no earlier and end no later.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us,
            outer->start_us + outer->dur_us);
  // Args render into the trace body.
  EXPECT_NE(inner->args.find("\"k\":7"), std::string::npos);
}

TEST_F(ObsTracerTest, SiblingSpansShareParent) {
  {
    Span parent("parent", "test");
    { Span a("child-a", "test"); }
    { Span b("child-b", "test"); }
  }
  std::vector<TraceEvent> events = Tracer::Global().Collect();
  const TraceEvent* parent = Find(events, "parent");
  const TraceEvent* a = Find(events, "child-a");
  const TraceEvent* b = Find(events, "child-b");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->parent_id, parent->id);
  EXPECT_EQ(b->parent_id, parent->id);
  EXPECT_EQ(a->depth, 1);
  EXPECT_EQ(b->depth, 1);
}

TEST_F(ObsTracerTest, SpansFromPoolThreadsAreCollected) {
  ThreadPool pool(4);
  TaskGroup group(&pool);
  for (int i = 0; i < 16; ++i) {
    group.Spawn([]() -> Status {
      Span span("pool-work", "test");
      return Status::OK();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  std::vector<TraceEvent> events = Tracer::Global().Collect();
  int pool_spans = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "pool-work") pool_spans += 1;
  }
  EXPECT_EQ(pool_spans, 16);
}

TEST_F(ObsTracerTest, DisabledTracerRecordsNothing) {
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  {
    Span span("invisible", "test");
    span.Arg("k", int64_t{1});
  }
  EXPECT_TRUE(Tracer::Global().Collect().empty());
}

TEST_F(ObsTracerTest, ChromeExportIsWellFormed) {
  {
    Span span("exported", "test");
    span.Arg("note", std::string_view("hello \"world\""));
  }
  std::string json = Tracer::Global().ExportChromeJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"exported\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  // The quote inside the arg value must be escaped.
  EXPECT_NE(json.find("hello \\\"world\\\""), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// --- Logger -----------------------------------------------------------------

TEST(ObsLogTest, DeterministicUnderSimClock) {
  Logger& logger = Logger::Global();
  auto run_once = [&logger] {
    SimClock clock;
    clock.AdvanceTo(123.456);
    std::vector<std::string> lines;
    logger.set_sink([&lines](const std::string& line) {
      lines.push_back(line);
    });
    logger.set_sim_clock(&clock);
    LogInfo("test", "event_one", {{"k", 42}, {"s", "value"}});
    clock.AdvanceTo(200.0);
    LogWarn("test", "event_two", {{"flag", true}});
    logger.set_sim_clock(nullptr);
    logger.set_sink(nullptr);
    return lines;
  };
  std::vector<std::string> first = run_once();
  std::vector<std::string> second = run_once();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first, second);  // byte-identical across runs
  EXPECT_NE(first[0].find("level=INFO"), std::string::npos);
  EXPECT_NE(first[0].find("sim=123.456"), std::string::npos);
  EXPECT_NE(first[0].find("component=test"), std::string::npos);
  EXPECT_NE(first[0].find("event=event_one"), std::string::npos);
  EXPECT_NE(first[0].find("k=42"), std::string::npos);
  EXPECT_NE(first[1].find("level=WARN"), std::string::npos);
  EXPECT_NE(first[1].find("sim=200.000"), std::string::npos);
}

TEST(ObsLogTest, MinLevelFiltersBelow) {
  Logger& logger = Logger::Global();
  std::vector<std::string> lines;
  logger.set_sink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  LogLevel saved = logger.min_level();
  logger.set_min_level(LogLevel::kWarn);
  LogInfo("test", "filtered");
  LogWarn("test", "passes");
  logger.set_min_level(saved);
  logger.set_sink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("event=passes"), std::string::npos);
}

TEST(ObsLogTest, ValuesWithSpacesAreQuoted) {
  Logger& logger = Logger::Global();
  std::vector<std::string> lines;
  logger.set_sink([&lines](const std::string& line) {
    lines.push_back(line);
  });
  LogInfo("test", "quoting", {{"msg", "two words"}});
  logger.set_sink(nullptr);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("msg=\"two words\""), std::string::npos);
}

// --- JsonWriter -------------------------------------------------------------

TEST(ObsJsonWriterTest, WritesNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string_view("cloudviews"));
  w.Field("count", int64_t{3});
  w.Field("ratio", 0.5);
  w.Field("on", true);
  w.Key("items").BeginArray().Int(1).Int(2).Int(3).EndArray();
  w.Key("nested").BeginObject().Field("x", int64_t{-1}).EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"cloudviews\",\"count\":3,\"ratio\":0.5,\"on\":true,"
            "\"items\":[1,2,3],\"nested\":{\"x\":-1}}");
}

TEST(ObsJsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(JsonWriter::Escape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonWriter::Escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(JsonWriter::Escape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonWriter::Escape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonWriter::Escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(ObsJsonWriterTest, NonFiniteDoublesEmitNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(1.0 / 0.0);
  w.Double(0.0 / 0.0);
  w.Double(2.5);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,2.5]");
}

// --- JsonReader -------------------------------------------------------------

TEST(ObsJsonReaderTest, ParsesEveryValueKind) {
  auto parsed = ParseJson(
      "{\"s\":\"a\\\"b\\n\",\"i\":-42,\"d\":2.5e3,\"t\":true,\"f\":false,"
      "\"n\":null,\"arr\":[1,[2],{}],\"obj\":{\"k\":\"v\"}}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s"), "a\"b\n");
  EXPECT_EQ(parsed->GetInt("i"), -42);
  EXPECT_DOUBLE_EQ(parsed->GetNumber("d"), 2500.0);
  EXPECT_TRUE(parsed->GetBool("t"));
  EXPECT_FALSE(parsed->GetBool("f", true));
  const JsonValue* null_value = parsed->Find("n");
  ASSERT_NE(null_value, nullptr);
  EXPECT_TRUE(null_value->is_null());
  const JsonValue* arr = parsed->Find("arr");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->items.size(), 3u);
  EXPECT_DOUBLE_EQ(arr->items[0].number_value, 1.0);
  EXPECT_TRUE(arr->items[2].is_object());
  EXPECT_EQ(parsed->Find("obj")->GetString("k"), "v");
  // Missing keys fall back to the caller's defaults.
  EXPECT_EQ(parsed->GetInt("absent", 7), 7);
  EXPECT_EQ(parsed->GetString("absent", "dflt"), "dflt");
}

TEST(ObsJsonReaderTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", std::string_view("tricky \"name\"\n"));
  w.Field("pi", 3.141592653589793);
  w.Key("points").BeginArray();
  w.BeginArray().Double(1.0).Double(2.0).EndArray();
  w.EndArray();
  w.EndObject();
  auto parsed = ParseJson(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("name"), "tricky \"name\"\n");
  EXPECT_DOUBLE_EQ(parsed->GetNumber("pi"), 3.141592653589793);
  EXPECT_EQ(parsed->Find("points")->items[0].items.size(), 2u);
}

TEST(ObsJsonReaderTest, PreservesMemberInsertionOrder) {
  auto parsed = ParseJson("{\"z\":1,\"a\":2,\"m\":3}");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->members.size(), 3u);
  EXPECT_EQ(parsed->members[0].first, "z");
  EXPECT_EQ(parsed->members[1].first, "a");
  EXPECT_EQ(parsed->members[2].first, "m");
}

TEST(ObsJsonReaderTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  // Depth bomb: deeper than kMaxDepth nesting is rejected, not crashed on.
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(ParseJson(deep).ok());
  // Errors carry the byte offset for debugging.
  auto bad = ParseJson("{\"a\":x}");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("at byte"), std::string::npos);
}

TEST(ObsJsonReaderTest, DecodesUnicodeEscapes) {
  auto parsed = ParseJson("{\"s\":\"\\u0041\\u00e9\\u20ac\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s"), "A\xC3\xA9\xE2\x82\xAC");
}

TEST(ObsJsonReaderTest, GetIntTreatsNumbersOutsideInt64AsMistyped) {
  // Casting such a double to int64_t is undefined behaviour; an insights or
  // explain file holding one reads the caller's default instead.
  auto parsed = ParseJson(
      "{\"big\":1e300,\"inf\":1e999,\"neg\":-1e300,"
      "\"two63\":9223372036854775808,\"min\":-9223372036854775808,"
      "\"frac\":-2.75}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetInt("big", 7), 7);
  EXPECT_EQ(parsed->GetInt("inf", 7), 7);
  EXPECT_EQ(parsed->GetInt("neg", 7), 7);
  EXPECT_EQ(parsed->GetInt("two63", 7), 7);
  EXPECT_EQ(parsed->GetInt("min", 7), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(parsed->GetInt("frac", 7), -2);
}

// --- QueryProfile -----------------------------------------------------------

TEST(ObsProfileTest, TextAndJsonReportsCoverFields) {
  QueryProfile profile;
  profile.job_id = 77;
  profile.virtual_cluster = "vc3";
  profile.day = 2;
  profile.reuse_enabled = true;
  profile.views_matched = 1;
  profile.matched_signatures.push_back("deadbeefdeadbeefdeadbeef");
  profile.phases = {{"bind", 0.001}, {"compile", 0.002}, {"execute", 0.1}};
  profile.num_operators = 5;
  profile.total_cpu_cost = 123.0;

  EXPECT_NEAR(profile.TotalPhaseSeconds(), 0.103, 1e-12);

  std::string text = profile.ToText();
  EXPECT_NE(text.find("job 77"), std::string::npos);
  EXPECT_NE(text.find("vc=vc3"), std::string::npos);
  EXPECT_NE(text.find("reuse=on"), std::string::npos);
  EXPECT_NE(text.find("deadbeefdead"), std::string::npos);
  EXPECT_NE(text.find("exec: operators=5 cpu_cost=123.0"),
            std::string::npos);

  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"job_id\":77"), std::string::npos);
  EXPECT_NE(json.find("\"virtual_cluster\":\"vc3\""), std::string::npos);
  EXPECT_NE(json.find("\"phases\":["), std::string::npos);
  EXPECT_NE(json.find("\"num_operators\":5"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

}  // namespace
}  // namespace obs
}  // namespace cloudviews
