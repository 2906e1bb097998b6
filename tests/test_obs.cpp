// Tests for the observability subsystem: the metrics registry, the typed
// trace-event ring (wraparound + drop counting), span lifecycle and
// correlation-id attachment, and the chrome-trace exporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "obs/tracer.hpp"

namespace namecoh {
namespace {

// --- MetricsRegistry -------------------------------------------------------

TEST(MetricsRegistry, GetOrCreateReturnsSameInstrument) {
  MetricsRegistry m;
  Counter& c1 = m.counter("x.count");
  Counter& c2 = m.counter("x.count");
  EXPECT_EQ(&c1, &c2);
  c1.inc();
  c2.inc(4);
  EXPECT_EQ(m.counter_value("x.count"), 5u);
  EXPECT_EQ(m.counter_value("never.created"), 0u);
  EXPECT_FALSE(m.has("never.created"));
  EXPECT_TRUE(m.has("x.count"));
}

TEST(MetricsRegistry, PointersStayValidAcrossInserts) {
  MetricsRegistry m;
  Counter* first = &m.counter("a");
  // Flood the map; node-based storage must not move the first slot.
  for (int i = 0; i < 500; ++i) m.counter("c" + std::to_string(i));
  first->inc();
  EXPECT_EQ(m.counter_value("a"), 1u);
}

TEST(MetricsRegistry, GaugesAndHistograms) {
  MetricsRegistry m;
  m.gauge("depth").set(3.5);
  m.gauge("depth").set(4.0);  // same name, same gauge
  EXPECT_EQ(m.gauge_value("depth"), 4.0);
  Histogram& h = m.histogram("lat", {1.0, 10.0});
  h.add(5.0);
  // Same name: boundaries of later calls are ignored, instrument shared.
  EXPECT_EQ(&m.histogram("lat", {99.0}), &h);
  EXPECT_EQ(m.size(), 2u);  // one gauge + one histogram
}

TEST(MetricsRegistry, JsonExportIsWellFormedAndSorted) {
  MetricsRegistry m;
  m.counter("b.count").inc(2);
  m.counter("a.count").inc(1);
  m.gauge("g").set(1.5);
  m.histogram("h", {1.0}).add(0.5);
  std::string json = m.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a.count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"b.count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // Sorted: a.count before b.count.
  EXPECT_LT(json.find("a.count"), json.find("b.count"));
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
}

// --- Tracer: ring buffer ---------------------------------------------------

TEST(Tracer, DisabledIsNoOpEverywhere) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  t.record(1, EventKind::kSend, 42);
  t.record_in_span(1, 1, EventKind::kCacheHit);
  EXPECT_EQ(t.open_span(1, 7, "a/b"), 0u);
  t.bind_corr(0, 42);
  t.close_span(0, 2, true);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_TRUE(t.spans().empty());
}

TEST(Tracer, RecordsTypedEventsWhenEnabled) {
  Tracer t;
  t.set_enabled(true);
  t.record(5, EventKind::kSend, 1, 10, 64);
  t.record(6, EventKind::kDeliver, 1, 20);
  auto events = t.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, 5u);
  EXPECT_EQ(events[0].kind, EventKind::kSend);
  EXPECT_EQ(events[0].corr, 1u);
  EXPECT_EQ(events[0].a, 10u);
  EXPECT_EQ(events[0].b, 64u);
  EXPECT_EQ(t.count(EventKind::kSend), 1u);
  EXPECT_EQ(t.count(EventKind::kDrop), 0u);
}

TEST(Tracer, RingWrapsAndCountsDrops) {
  Tracer t;
  t.set_capacity(4);
  t.set_enabled(true);
  for (std::uint64_t i = 0; i < 10; ++i) {
    t.record(i, EventKind::kSend, /*corr=*/i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);  // oldest six overwritten, loss observable
  auto events = t.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first and the survivors are the last four recorded.
  EXPECT_EQ(events[0].corr, 6u);
  EXPECT_EQ(events[3].corr, 9u);
}

TEST(Tracer, EventKindNamesCoverTheTaxonomy) {
  EXPECT_EQ(event_kind_name(EventKind::kSend), "send");
  EXPECT_EQ(event_kind_name(EventKind::kCacheMiss), "cache_miss");
  EXPECT_EQ(event_kind_name(EventKind::kServerAnswer), "server_answer");
  // Every kind below the sentinel has a non-empty, non-placeholder name.
  for (std::uint8_t k = 0;
       k < static_cast<std::uint8_t>(EventKind::kKindCount); ++k) {
    EXPECT_FALSE(event_kind_name(static_cast<EventKind>(k)).empty());
  }
}

// --- Tracer: spans and correlation routing ---------------------------------

TEST(Tracer, SpanLifecycle) {
  Tracer t;
  t.set_enabled(true);
  std::uint64_t s = t.open_span(10, 7, "local/data.txt");
  ASSERT_NE(s, 0u);
  t.record_in_span(s, 11, EventKind::kCacheMiss, 7);
  t.bind_corr(s, 1001);
  t.record(12, EventKind::kSend, 1001, 3, 40);
  t.close_span(s, 20, true);

  const SpanRecord* span = t.span(s);
  ASSERT_NE(span, nullptr);
  EXPECT_FALSE(span->open);
  EXPECT_TRUE(span->ok);
  EXPECT_EQ(span->begin, 10u);
  EXPECT_EQ(span->end, 20u);
  EXPECT_EQ(span->start_entity, 7u);
  EXPECT_EQ(span->path, "local/data.txt");
  ASSERT_EQ(span->corrs.size(), 1u);
  EXPECT_EQ(span->corrs[0], 1001u);

  auto events = t.events_for_span(s);
  ASSERT_EQ(events.size(), 4u);  // begin, cache miss, send, end
  EXPECT_EQ(events.front().kind, EventKind::kSpanBegin);
  EXPECT_EQ(events[1].kind, EventKind::kCacheMiss);
  EXPECT_EQ(events[2].kind, EventKind::kSend);
  EXPECT_EQ(events.back().kind, EventKind::kSpanEnd);
}

TEST(Tracer, CorrRoutingDiesWithTheSpan) {
  Tracer t;
  t.set_enabled(true);
  std::uint64_t s = t.open_span(1, 1, "x");
  t.bind_corr(s, 500);
  t.close_span(s, 2, false);
  // A straggler reply arriving after close: recorded, but span 0.
  t.record(3, EventKind::kDeliver, 500);
  auto events = t.events();
  EXPECT_EQ(events.back().span, 0u);
  EXPECT_EQ(t.events_for_span(s).size(), 2u);  // begin + end only
}

TEST(Tracer, TwoSpansRouteTheirOwnCorrs) {
  Tracer t;
  t.set_enabled(true);
  std::uint64_t s1 = t.open_span(1, 1, "a");
  t.bind_corr(s1, 100);
  std::uint64_t s2 = t.open_span(2, 2, "b");
  t.bind_corr(s2, 200);
  t.record(3, EventKind::kSend, 100);
  t.record(4, EventKind::kSend, 200);
  t.close_span(s1, 5, true);
  t.close_span(s2, 6, true);
  auto e1 = t.events_for_span(s1);
  auto e2 = t.events_for_span(s2);
  ASSERT_EQ(e1.size(), 3u);
  ASSERT_EQ(e2.size(), 3u);
  EXPECT_EQ(e1[1].corr, 100u);
  EXPECT_EQ(e2[1].corr, 200u);
}

TEST(Tracer, SpanTableIsBounded) {
  Tracer t;
  t.set_enabled(true);
  for (std::size_t i = 0; i < Tracer::kMaxSpans + 10; ++i) {
    std::uint64_t s = t.open_span(i, i, "p");
    t.close_span(s, i + 1, true);
  }
  EXPECT_EQ(t.spans().size(), Tracer::kMaxSpans);
  EXPECT_EQ(t.spans_dropped(), 10u);
  // The oldest spans are the evicted ones.
  EXPECT_EQ(t.spans().front().start_entity, 10u);
}

TEST(Tracer, ClearResetsEverything) {
  Tracer t;
  t.set_enabled(true);
  std::uint64_t s = t.open_span(1, 1, "x");
  t.bind_corr(s, 9);
  t.record(2, EventKind::kSend, 9);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.spans().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

// --- Chrome-trace exporter -------------------------------------------------

TEST(TraceExport, EmitsCompleteEventsAndInstants) {
  Tracer t;
  t.set_enabled(true);
  std::uint64_t s = t.open_span(100, 7, "local/data.txt");
  t.bind_corr(s, 1);
  t.record_in_span(s, 105, EventKind::kCacheMiss, 7);
  t.record(110, EventKind::kSend, 1, 3, 40);
  t.close_span(s, 200, true);

  std::string json = to_chrome_trace(t);
  // A complete ("X") slice for the span, duration 100 µs.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":100"), std::string::npos);
  EXPECT_NE(json.find("resolve local/data.txt"), std::string::npos);
  // Instants for the in-span events.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_miss\""), std::string::npos);
  EXPECT_NE(json.find("\"send\""), std::string::npos);
  // Drop accounting travels in otherData.
  EXPECT_NE(json.find("\"dropped_events\":0"), std::string::npos);
  // No trailing comma artifacts (cheap sanity on hand-rolled JSON).
  EXPECT_EQ(json.find(",]"), std::string::npos);
  EXPECT_EQ(json.find(",}"), std::string::npos);
}

TEST(TraceExport, WritesLoadableFile) {
  Tracer t;
  t.set_enabled(true);
  std::uint64_t s = t.open_span(0, 1, "x");
  t.close_span(s, 10, true);
  const char* path = "test_obs_trace_out.json";
  ASSERT_TRUE(write_chrome_trace(t, path).is_ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), to_chrome_trace(t) + "\n");
  std::remove(path);
}

TEST(TraceExport, EscapesPathsInSpanNames) {
  Tracer t;
  t.set_enabled(true);
  std::uint64_t s = t.open_span(0, 1, "weird\"name");
  t.close_span(s, 1, false);
  std::string json = to_chrome_trace(t);
  EXPECT_NE(json.find("weird\\\"name"), std::string::npos);
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
}

}  // namespace
}  // namespace namecoh
