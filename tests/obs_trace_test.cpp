// Observability layer tests. Suites are named Runtime* on purpose: the
// tsan preset's ctest filter (-R Runtime) must cover the concurrent
// emit-while-flush path.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/executor.hpp"
#include "workflow/engine.hpp"

namespace interop {
namespace {

using obs::EventKind;
using obs::TraceEvent;
using obs::TraceSession;

// ----------------------------------------------------------- trace core

TEST(RuntimeObsTrace, DisarmedEmittersAreNoops) {
  ASSERT_FALSE(obs::armed());
  obs::begin_span("t", "x", 1);
  obs::end_span("t", "x", 1);
  obs::instant("t", "i");
  obs::counter("t", "c", 7);
  obs::Span span("t", "raii");
  EXPECT_EQ(span.id(), 0u);

  // Arming afterwards must not resurrect any of the above.
  TraceSession session;
  session.arm();
  EXPECT_TRUE(obs::armed());
  session.disarm();
  EXPECT_TRUE(session.flush().empty());
}

TEST(RuntimeObsTrace, SpanLatchesArmStateAtConstruction) {
  TraceSession session;
  session.arm();
  {
    obs::Span outer("t", "outer");
    EXPECT_NE(outer.id(), 0u);
    session.disarm();
    // End emits even though the session is disarmed now: a started span
    // never dangles.
  }
  std::vector<TraceEvent> events = session.flush();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::Begin);
  EXPECT_EQ(events[1].kind, EventKind::End);
  EXPECT_EQ(events[0].id, events[1].id);
}

TEST(RuntimeObsTrace, FlushPreservesPerThreadOrderAndAssignsTids) {
  TraceSession session;
  session.arm();
  obs::instant("t", "a");
  obs::instant("t", "b");
  obs::counter("t", "c", 1);
  session.disarm();
  std::vector<TraceEvent> events = session.flush();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "c");
  for (const TraceEvent& e : events) EXPECT_EQ(e.tid, events[0].tid);
}

// The TSan-verified concurrency contract: many threads emit while the
// session owner flushes concurrently; nothing is lost, spans stay
// well-nested per thread.
TEST(RuntimeObsTrace, ConcurrentEmitWhileFlushing) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 200;

  TraceSession session;
  session.arm();

  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> emitters;
  emitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    emitters.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::Span span("stress", "work" + std::to_string(t));
        obs::counter("stress", "i", i);
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  go.store(true, std::memory_order_release);
  // Flush aggressively while emitters run — the racy path under test.
  while (done.load(std::memory_order_acquire) < kThreads) session.flush();
  for (std::thread& t : emitters) t.join();
  session.disarm();

  std::vector<TraceEvent> events = session.flush();
  EXPECT_EQ(events.size(), std::size_t(kThreads) * kSpansPerThread * 3);

  // Per-tid span nesting must be intact; reuse the checker on the JSON.
  std::ostringstream os;
  session.write_chrome_json(os);
  obs::TraceCheckResult check = obs::check_chrome_trace(os.str());
  EXPECT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_EQ(check.spans, std::size_t(kThreads) * kSpansPerThread);
}

TEST(RuntimeObsTrace, BinaryRoundTrip) {
  TraceSession session;
  session.arm();
  obs::begin_span("cat", "span \"quoted\"", 42, "\"k\":1");
  obs::counter("cat", "c", -5);
  obs::instant("cat", "i", "\"msg\":\"x\\ny\"");
  obs::end_span("cat", "span \"quoted\"", 42);
  session.disarm();

  std::vector<TraceEvent> original = session.flush();
  std::stringstream buf;
  session.write_binary(buf);
  std::vector<TraceEvent> decoded;
  ASSERT_TRUE(TraceSession::read_binary(buf, &decoded));
  EXPECT_EQ(decoded, original);

  // Corrupted magic is rejected.
  std::stringstream bad("XXXXgarbage");
  EXPECT_FALSE(TraceSession::read_binary(bad, &decoded));
}

// ----------------------------------------------------------- metrics

TEST(RuntimeObsMetrics, CountersGaugesHistograms) {
  obs::Metrics m;
  m.counter("a.count").add();
  m.counter("a.count").add(4);
  EXPECT_EQ(m.counter("a.count").value(), 5);

  m.gauge("a.depth").set(7);
  m.gauge("a.depth").add(-2);
  EXPECT_EQ(m.gauge("a.depth").value(), 5);

  auto& h = m.histogram("a.us");
  h.observe(0);
  h.observe(1);
  h.observe(5);
  h.observe(1000);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1006);
  EXPECT_EQ(h.bucket(obs::MetricHistogram::bucket_of(0)), 1);
  EXPECT_EQ(h.bucket(obs::MetricHistogram::bucket_of(5)), 1);

  std::string text = m.expose();
  EXPECT_NE(text.find("counter a.count 5"), std::string::npos);
  EXPECT_NE(text.find("gauge a.depth 5"), std::string::npos);
  EXPECT_NE(text.find("histogram a.us count=4 sum=1006"), std::string::npos);

  // Reset zeroes in place; cached references stay valid.
  auto& c = m.counter("a.count");
  m.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_EQ(h.count(), 0);
}

TEST(RuntimeObsMetrics, Log2BucketBoundaries) {
  using H = obs::MetricHistogram;
  EXPECT_EQ(H::bucket_of(0), 0);
  EXPECT_EQ(H::bucket_of(1), 1);
  EXPECT_EQ(H::bucket_of(2), 2);
  EXPECT_EQ(H::bucket_of(3), 2);
  EXPECT_EQ(H::bucket_of(4), 3);
  EXPECT_EQ(H::bucket_of(~std::uint64_t(0)), 64);
  EXPECT_EQ(H::bucket_upper(0), 0u);
  EXPECT_EQ(H::bucket_upper(2), 3u);
  EXPECT_EQ(H::bucket_upper(64), ~std::uint64_t(0));
}

// ----------------------------------------------------------- checker

TEST(RuntimeObsCheck, AcceptsAWellFormedTrace) {
  const char* good = R"({"traceEvents":[
    {"name":"a","cat":"t","ph":"B","ts":1,"pid":1,"tid":0},
    {"name":"b","cat":"t","ph":"B","ts":2,"pid":1,"tid":0},
    {"name":"b","cat":"t","ph":"E","ts":3,"pid":1,"tid":0},
    {"name":"a","cat":"t","ph":"E","ts":4,"pid":1,"tid":0},
    {"name":"c","cat":"t","ph":"C","ts":4,"pid":1,"tid":0,"args":{"value":2}},
    {"name":"i","cat":"t","ph":"i","ts":5,"pid":1,"tid":1}]})";
  obs::TraceCheckResult r = obs::check_chrome_trace(good);
  EXPECT_TRUE(r.ok) << (r.errors.empty() ? "" : r.errors[0]);
  EXPECT_EQ(r.events, 6u);
  EXPECT_EQ(r.spans, 2u);
  EXPECT_EQ(r.counters, 1u);
  EXPECT_EQ(r.instants, 1u);
}

TEST(RuntimeObsCheck, RejectsBadTraces) {
  // Not JSON at all.
  EXPECT_FALSE(obs::check_chrome_trace("not json").ok);
  // Missing traceEvents.
  EXPECT_FALSE(obs::check_chrome_trace(R"({"foo":[]})").ok);
  // Unclosed span.
  EXPECT_FALSE(obs::check_chrome_trace(
                   R"({"traceEvents":[
        {"name":"a","ph":"B","ts":1,"pid":1,"tid":0}]})")
                   .ok);
  // E without B.
  EXPECT_FALSE(obs::check_chrome_trace(
                   R"({"traceEvents":[
        {"name":"a","ph":"E","ts":1,"pid":1,"tid":0}]})")
                   .ok);
  // Mismatched nesting (E closes the wrong name).
  EXPECT_FALSE(obs::check_chrome_trace(
                   R"({"traceEvents":[
        {"name":"a","ph":"B","ts":1,"pid":1,"tid":0},
        {"name":"b","ph":"B","ts":2,"pid":1,"tid":0},
        {"name":"a","ph":"E","ts":3,"pid":1,"tid":0},
        {"name":"b","ph":"E","ts":4,"pid":1,"tid":0}]})")
                   .ok);
  // Timestamp regression on one tid.
  EXPECT_FALSE(obs::check_chrome_trace(
                   R"({"traceEvents":[
        {"name":"i","ph":"i","ts":5,"pid":1,"tid":0},
        {"name":"j","ph":"i","ts":4,"pid":1,"tid":0}]})")
                   .ok);
  // Missing required key (no ts).
  EXPECT_FALSE(obs::check_chrome_trace(
                   R"({"traceEvents":[
        {"name":"i","ph":"i","pid":1,"tid":0}]})")
                   .ok);
}

// ----------------------------------------------------------- golden flow

namespace {

wf::Action write_action(std::string out, std::vector<std::string> reads) {
  return {out, wf::ActionLanguage::Native,
          [out, reads](wf::ActionApi& api) {
            std::string content;
            for (const std::string& r : reads)
              content += api.read_data(r).value_or("?");
            api.write_data(out, content + "+" + out);
            return wf::ActionResult{0, "ok"};
          }};
}

wf::FlowTemplate golden_flow(int width) {
  wf::FlowTemplate flow;
  flow.name = "golden";
  wf::StepDef src;
  src.name = "src";
  src.writes = {"src.out"};
  src.action = write_action("src.out", {});
  flow.steps.push_back(src);
  wf::StepDef sink;
  sink.name = "sink";
  for (int i = 0; i < width; ++i) {
    std::string name = "w" + std::to_string(i);
    wf::StepDef step;
    step.name = name;
    step.start_after = {"src"};
    step.reads = {"src.out"};
    step.writes = {name + ".out"};
    step.action = write_action(name + ".out", {"src.out"});
    flow.steps.push_back(std::move(step));
    sink.start_after.push_back(name);
    sink.reads.push_back(name + ".out");
  }
  sink.writes = {"sink.out"};
  sink.action = write_action("sink.out", sink.reads);
  flow.steps.push_back(std::move(sink));
  return flow;
}

}  // namespace

// A pinned-seed flow run with injected faults produces a schema-valid
// Chrome trace whose per-step span counts reconcile exactly with the
// RunJournal's attempt records (cross-linked by span id).
TEST(RuntimeObsGolden, FlowTraceMatchesJournal) {
  using namespace interop::runtime;

  TraceSession session;
  session.arm();

  FaultPlan plan;
  plan.schedule[{"w1", 1}] = FaultKind::Fail;       // w1 retries once
  plan.schedule[{"w3", 1}] = FaultKind::TornWrite;  // w3 retries once

  ParallelExecutor par(golden_flow(6), {},
                       std::make_unique<wf::SimpleDataManager>(),
                       {.workers = 4, .max_attempts = 3}, nullptr);
  par.set_fault_injector(
      std::make_shared<FaultInjector>(/*seed=*/1234, plan));
  ASSERT_TRUE(par.instantiate({}).empty());
  RunStats stats = par.run();
  session.disarm();

  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.retries, 2);

  // Schema validity of the serialized trace.
  std::ostringstream os;
  session.write_chrome_json(os);
  obs::TraceCheckResult check = obs::check_chrome_trace(os.str());
  ASSERT_TRUE(check.ok) << (check.errors.empty() ? "" : check.errors[0]);
  EXPECT_GT(check.spans, 0u);
  EXPECT_GT(check.instants, 0u);  // engine transitions + backoff markers

  // Reconciliation: every journaled attempt carries a span id, and that
  // span exists in the trace exactly once as Begin + once as End, named
  // after the step.
  std::vector<TraceEvent> events = session.flush();
  std::map<std::uint64_t, int> begins, ends;
  std::map<std::uint64_t, std::string> span_name;
  for (const TraceEvent& e : events) {
    if (e.id == 0) continue;
    if (e.kind == EventKind::Begin) {
      ++begins[e.id];
      span_name[e.id] = e.name;
    } else if (e.kind == EventKind::End) {
      ++ends[e.id];
    }
  }
  std::map<std::string, int> journal_attempts, trace_attempt_spans;
  for (const JournalEntry& e : par.journal().entries()) {
    ASSERT_NE(e.span, 0u) << "journal entry without a trace span: " << e.step;
    EXPECT_EQ(begins[e.span], 1) << "span " << e.span;
    EXPECT_EQ(ends[e.span], 1) << "span " << e.span;
    EXPECT_EQ(span_name[e.span], "step:" + e.step);
    ++journal_attempts[e.step];
  }
  for (const auto& [id, n] : begins) {
    const std::string& name = span_name[id];
    if (name.rfind("step:", 0) == 0) ++trace_attempt_spans[name.substr(5)];
  }
  EXPECT_EQ(trace_attempt_spans, journal_attempts);

  // The faulted steps show their extra attempt in both views.
  EXPECT_EQ(journal_attempts["w1"], 2);
  EXPECT_EQ(journal_attempts["w3"], 2);
  EXPECT_EQ(journal_attempts["w0"], 1);

  // The JSON journal export carries the span cross-links.
  std::string journal_json = par.journal().to_json(par.engine().instance());
  EXPECT_NE(journal_json.find("\"span\":"), std::string::npos);
}

}  // namespace
}  // namespace interop
