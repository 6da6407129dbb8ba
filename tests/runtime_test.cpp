// The flow runtime: determinism vs the serial oracle (serial_oracle.hpp),
// content-addressed memoization, the run journal, livelock detection, the
// shared worker pool, and a ThreadSanitizer-friendly many-worker stress
// test (see the "tsan" preset in CMakePresets.json, which runs exactly the
// Runtime* tests).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "runtime/cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/hash.hpp"
#include "runtime/pool.hpp"
#include "serial_oracle.hpp"
#include "workflow/engine.hpp"

namespace interop::runtime {
namespace {

using wf::ActionApi;
using wf::ActionLanguage;
using wf::ActionResult;
using wf::Engine;
using wf::FlowTemplate;
using wf::SimpleDataManager;
using wf::StepDef;
using wf::StepState;

// Diamond: seed -> (left, right) -> join. Every action derives its output
// from its inputs, so serial and parallel runs must agree byte-for-byte.
FlowTemplate make_diamond(std::atomic<int>* executions = nullptr) {
  auto act = [executions](std::string out, std::vector<std::string> reads) {
    return wf::Action{
        out, ActionLanguage::Native,
        [executions, out, reads](ActionApi& api) {
          if (executions) executions->fetch_add(1);
          std::string content = out + ":";
          for (const std::string& r : reads)
            content += api.read_data(r).value_or("?") + "|";
          api.write_data(out, content);
          return ActionResult{0, "wrote " + out};
        }};
  };
  FlowTemplate flow;
  flow.name = "diamond";
  flow.steps = {
      {"seed", act("seed.dat", {}), {}, {}, {}, {"seed.dat"}, "", "", ""},
      {"left", act("left.dat", {"seed.dat"}), {"seed"}, {}, {"seed.dat"},
       {"left.dat"}, "", "", ""},
      {"right", act("right.dat", {"seed.dat"}), {"seed"}, {}, {"seed.dat"},
       {"right.dat"}, "", "", ""},
      {"join", act("join.dat", {"left.dat", "right.dat"}), {"left", "right"},
       {}, {"left.dat", "right.dat"}, {"join.dat"}, "", "", ""}};
  return flow;
}

// Layered random DAG in the shape of the T8 workload: `layers` x `width`
// steps, each reading 1-2 producers from the previous layer.
FlowTemplate make_layered(int layers, int width, std::uint64_t seed,
                          int spin_us = 0) {
  interop::base::Rng rng(seed);
  FlowTemplate flow;
  flow.name = "layered";
  for (int l = 0; l < layers; ++l) {
    for (int w = 0; w < width; ++w) {
      std::string name = "s" + std::to_string(l) + "_" + std::to_string(w);
      std::string artifact = name + ".out";
      StepDef step;
      step.name = name;
      step.writes = {artifact};
      if (l > 0) {
        int deps = 1 + int(rng.index(2));
        for (int d = 0; d < deps; ++d) {
          std::string parent = "s" + std::to_string(l - 1) + "_" +
                               std::to_string(rng.index(std::size_t(width)));
          if (std::find(step.start_after.begin(), step.start_after.end(),
                        parent) == step.start_after.end()) {
            step.start_after.push_back(parent);
            step.reads.push_back(parent + ".out");
          }
        }
      } else {
        step.reads = {"inputs.dat"};
      }
      std::vector<std::string> reads = step.reads;
      step.action = {name, ActionLanguage::Native,
                     [artifact, reads, spin_us](ActionApi& api) {
                       std::string content;
                       for (const std::string& r : reads)
                         content += api.read_data(r).value_or("?");
                       if (spin_us > 0)
                         std::this_thread::sleep_for(
                             std::chrono::microseconds(spin_us));
                       api.write_data(artifact,
                                      to_hex(fnv1a(content)) + "+");
                       return ActionResult{0, ""};
                     }};
      flow.steps.push_back(std::move(step));
    }
  }
  return flow;
}

std::map<std::string, std::string> snapshot(wf::DataManager& data) {
  std::map<std::string, std::string> out;
  for (const std::string& path : data.list()) out[path] = *data.read(path);
  return out;
}

TEST(RuntimeExecutor, ParallelMatchesSerialOnDiamond) {
  Engine serial(make_diamond(), {}, std::make_unique<SimpleDataManager>());
  ASSERT_EQ(serial.instantiate({}), "");
  EXPECT_EQ(wf::oracle::run_all(serial), 4);
  ASSERT_TRUE(serial.complete());

  ParallelExecutor par(make_diamond(), {},
                       std::make_unique<SimpleDataManager>(), {.workers = 4});
  ASSERT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();
  EXPECT_TRUE(par.complete()) << stats.error;
  EXPECT_EQ(stats.executed, 4);
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(snapshot(par.engine().data()), snapshot(serial.data()));
}

TEST(RuntimeExecutor, WarmCacheExecutesZeroActions) {
  std::atomic<int> executions{0};
  auto cache = std::make_shared<ResultCache>();

  ParallelExecutor cold(make_diamond(&executions), {},
                        std::make_unique<SimpleDataManager>(), {.workers = 4},
                        cache);
  ASSERT_EQ(cold.instantiate({}), "");
  RunStats first = cold.run();
  EXPECT_EQ(first.executed, 4);
  EXPECT_EQ(first.cache_hits, 0);
  EXPECT_EQ(executions.load(), 4);
  ASSERT_TRUE(cold.complete());

  // A fresh instance over a fresh store, same cache: everything replays.
  ParallelExecutor warm(make_diamond(&executions), {},
                        std::make_unique<SimpleDataManager>(), {.workers = 4},
                        cache);
  ASSERT_EQ(warm.instantiate({}), "");
  RunStats second = warm.run();
  EXPECT_EQ(second.executed, 0);
  EXPECT_EQ(second.cache_hits, 4);
  EXPECT_EQ(executions.load(), 4) << "warm run must execute zero actions";
  EXPECT_TRUE(warm.complete());
  EXPECT_EQ(snapshot(warm.engine().data()), snapshot(cold.engine().data()));
}

TEST(RuntimeExecutor, CacheInvalidatedByChangedInput) {
  auto cache = std::make_shared<ResultCache>();
  FlowTemplate flow = make_diamond();

  ParallelExecutor first(flow, {}, std::make_unique<SimpleDataManager>(),
                         {.workers = 2}, cache);
  ASSERT_EQ(first.instantiate({}), "");
  first.run();

  // Re-run over the same live store after an upstream edit: the triggers
  // mark the readers NeedsRerun, and their changed inputs miss the cache.
  first.engine().data().write("seed.dat", "edited");
  RunStats rerun = first.run();
  EXPECT_TRUE(first.complete());
  EXPECT_GE(rerun.executed, 2);  // left and right recompute
  EXPECT_NE(*first.engine().data().read("left.dat"),
            std::string("left.dat:seed.dat:|"));
}

TEST(RuntimeExecutor, FailurePropagatesLikeSerial) {
  FlowTemplate flow;
  flow.name = "f";
  flow.steps = {
      {"boom",
       {"boom", ActionLanguage::Native,
        [](ActionApi&) { return ActionResult{2, "exploded"}; }},
       {}, {}, {}, {}, "", "", ""},
      {"after",
       {"after", ActionLanguage::Native,
        [](ActionApi&) { return ActionResult{0, ""}; }},
       {"boom"}, {}, {}, {}, "", "", ""}};
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       {.workers = 4});
  ASSERT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();
  EXPECT_EQ(stats.failures, 1);
  EXPECT_FALSE(par.complete());
  EXPECT_EQ(par.engine().status_report().at("boom"), StepState::Failed);
  EXPECT_EQ(par.engine().status_report().at("after"), StepState::Waiting);
}

TEST(RuntimeExecutor, StressManyWorkersDeterministic) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    FlowTemplate flow = make_layered(6, 8, seed, /*spin_us=*/50);

    Engine serial(flow, {}, std::make_unique<SimpleDataManager>());
    serial.data().write("inputs.dat", "v1");
    ASSERT_EQ(serial.instantiate({}), "");
    wf::oracle::run_all(serial);
    ASSERT_TRUE(serial.complete());

    ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                         {.workers = 8});
    par.engine().data().write("inputs.dat", "v1");
    ASSERT_EQ(par.instantiate({}), "");
    RunStats stats = par.run();
    ASSERT_TRUE(par.complete()) << stats.error;
    EXPECT_EQ(stats.executed, 48);
    EXPECT_EQ(snapshot(par.engine().data()), snapshot(serial.data()));

    // Mid-life upstream change: triggers + parallel rework, then nothing
    // may be stale (the T8 invariant).
    par.engine().data().write("inputs.dat", "v2");
    par.run();
    ASSERT_TRUE(par.complete());
    for (const auto& [name, status] : par.engine().instance().steps)
      for (const std::string& path : status.def.reads) {
        auto t = par.engine().data().timestamp(path);
        if (t) {
          EXPECT_LE(*t, status.last_finished) << name;
        }
      }
  }
}

TEST(RuntimeExecutor, LivelockDetectedInParallelRun) {
  // ping writes a.dat and reads b.dat; pong reads a.dat and writes b.dat:
  // each success marks the other NeedsRerun, forever.
  FlowTemplate flow;
  flow.name = "osc";
  flow.steps = {
      {"ping",
       {"ping", ActionLanguage::Native,
        [](ActionApi& api) {
          api.write_data("a.dat", api.read_data("b.dat").value_or("") + "p");
          return ActionResult{0, ""};
        }},
       {}, {}, {"b.dat"}, {"a.dat"}, "", "", ""},
      {"pong",
       {"pong", ActionLanguage::Native,
        [](ActionApi& api) {
          api.write_data("b.dat", api.read_data("a.dat").value_or("") + "q");
          return ActionResult{0, ""};
        }},
       {}, {}, {"a.dat"}, {"b.dat"}, "", "", ""}};
  ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                       {.workers = 2},
                       /*cache=*/nullptr);
  ASSERT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();
  EXPECT_TRUE(stats.livelock);
  EXPECT_NE(stats.error.find("livelock"), std::string::npos);
}

TEST(RuntimeExecutor, LivelockDetectedAndReported) {
  // ping writes a.dat and reads b.dat; pong reads a.dat and writes b.dat.
  // Every success marks the other NeedsRerun: without detection the run
  // would spin forever. It stops with a diagnostic instead.
  FlowTemplate flow;
  flow.name = "osc";
  flow.steps = {
      {"ping", {"ping", ActionLanguage::Native,
                [](ActionApi& api) {
                  api.write_data("a.dat",
                                 api.read_data("b.dat").value_or("") + "p");
                  return ActionResult{0, ""};
                }},
       {}, {}, {"b.dat"}, {"a.dat"}, "", "", ""},
      {"pong", {"pong", ActionLanguage::Native,
                [](ActionApi& api) {
                  api.write_data("b.dat",
                                 api.read_data("a.dat").value_or("") + "q");
                  return ActionResult{0, ""};
                }},
       {}, {}, {"a.dat"}, {"b.dat"}, "", "", ""}};
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ExecutorOptions options;
    options.workers = workers;
    ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                         options, /*cache=*/nullptr);
    ASSERT_EQ(par.instantiate({}), "");
    RunStats stats = par.run();
    EXPECT_TRUE(stats.livelock);
    EXPECT_LE(stats.executed, 2 * kLivelockLimit + 2);  // bounded
    EXPECT_NE(stats.error.find("livelock"), std::string::npos);
    EXPECT_NE(par.engine().last_error().find("livelock"), std::string::npos);
    // The diagnostic reaches the user as a notification too.
    bool notified = false;
    for (const std::string& n : par.engine().notifications())
      if (n.find("livelock") != std::string::npos) notified = true;
    EXPECT_TRUE(notified);
  }
}

// Everything one flow run leaves behind that the serial loop also decides:
// final data, step states and run/rerun counts, engine step count and the
// user notifications in order.
struct RunOutcome {
  std::map<std::string, std::string> data;
  std::map<std::string, std::string> steps;  ///< state/runs/reruns
  int steps_run = 0;
  std::vector<std::string> notifications;
};

RunOutcome outcome_of(Engine& engine) {
  RunOutcome out;
  out.data = snapshot(engine.data());
  for (const auto& [name, status] : engine.instance().steps)
    out.steps[name] = std::string(wf::to_string(status.state)) + "/" +
                      std::to_string(status.runs) + "/" +
                      std::to_string(status.reruns);
  out.steps_run = engine.metrics().steps_run;
  out.notifications = engine.notifications();
  return out;
}

// Notifications as a sorted multiset with the input path masked, for runs
// with more than one worker: steps of one rank apply in any order, so a
// step fed by two reruns names whichever of its inputs changed first.
std::vector<std::string> notified_steps(std::vector<std::string> notes) {
  for (std::string& note : notes) {
    std::size_t open = note.find('\'');
    std::size_t close = note.rfind('\'');
    if (open < close) note.replace(open, close - open + 1, "'*'");
  }
  std::sort(notes.begin(), notes.end());
  return notes;
}

TEST(RuntimeExecutor, ReworkMatchesSerialAtAnyWorkerCount) {
  // The T8 workload: a layered flow runs, then one upstream change arrives
  // and the run reworks what the triggers flag. Every worker count must
  // rework exactly what the serial loop does: a step is claimed only after
  // every step above it has Succeeded (Engine::claimable_steps), so it
  // never runs beside an upstream rerun. At 1 worker the notifications
  // must also match the serial loop's in order, word for word.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    FlowTemplate flow = make_layered(4, 4, seed);

    Engine serial(flow, {}, std::make_unique<SimpleDataManager>());
    serial.data().write("inputs.dat", "v1");
    ASSERT_EQ(serial.instantiate({}), "");
    wf::oracle::run_all(serial);
    serial.data().write("inputs.dat", "v2");
    wf::oracle::run_all(serial);
    ASSERT_TRUE(serial.complete());
    const RunOutcome want = outcome_of(serial);

    for (int workers : {1, 2, 4}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " workers=" + std::to_string(workers));
      ExecutorOptions options;
      options.workers = workers;
      ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                           options, /*cache=*/nullptr);
      par.engine().data().write("inputs.dat", "v1");
      ASSERT_EQ(par.instantiate({}), "");
      par.run();
      par.engine().data().write("inputs.dat", "v2");
      RunStats stats = par.run();
      EXPECT_TRUE(stats.error.empty()) << stats.error;

      RunOutcome got = outcome_of(par.engine());
      EXPECT_EQ(got.data, want.data);
      EXPECT_EQ(got.steps, want.steps);
      EXPECT_EQ(got.steps_run, want.steps_run);
      if (workers == 1)
        EXPECT_EQ(got.notifications, want.notifications);
      else
        EXPECT_EQ(notified_steps(got.notifications),
                  notified_steps(want.notifications));
    }
  }
}

TEST(RuntimeExecutor, SharedCacheReworkMatchesSerial) {
  // A reads in.dat and c.dat and writes a.dat; B reads in.dat and a.dat.
  // A change to in.dat marks both for rework. B's cache key must be taken
  // from the inputs it runs on, after A's rerun: otherwise the first instance
  // files B(in2, A(in2, c1)) under B's (in2, A(in1, c1)) key, and the
  // second instance, changing in.dat and c.dat together, replays that
  // entry over a.dat = A(in2, c2).
  auto concat = [](std::string out, std::string tag,
                   std::vector<std::string> reads) {
    return wf::Action{out, ActionLanguage::Native,
                      [out, tag, reads](ActionApi& api) {
                        std::string content = tag + "(";
                        for (const std::string& r : reads)
                          content += api.read_data(r).value_or("?") + ",";
                        api.write_data(out, content + ")");
                        return ActionResult{0, ""};
                      }};
  };
  FlowTemplate flow;
  flow.name = "rework";
  flow.steps = {
      {"A", concat("a.dat", "A", {"in.dat", "c.dat"}), {}, {},
       {"in.dat", "c.dat"}, {"a.dat"}, "", "", ""},
      {"B", concat("b.dat", "B", {"in.dat", "a.dat"}), {"A"}, {},
       {"in.dat", "a.dat"}, {"b.dat"}, "", "", ""}};

  // Per instance: run over (in1, c1), then apply `changes` and run again.
  using Changes = std::map<std::string, std::string>;
  const std::vector<Changes> instances = {{{"in.dat", "in2"}},
                                          {{"in.dat", "in2"},
                                           {"c.dat", "c2"}}};
  std::vector<std::map<std::string, std::string>> want;
  for (const Changes& changes : instances) {
    Engine serial(flow, {}, std::make_unique<SimpleDataManager>());
    serial.data().write("in.dat", "in1");
    serial.data().write("c.dat", "c1");
    ASSERT_EQ(serial.instantiate({}), "");
    wf::oracle::run_all(serial);
    for (const auto& [path, content] : changes)
      serial.data().write(path, content);
    wf::oracle::run_all(serial);
    ASSERT_TRUE(serial.complete());
    want.push_back(snapshot(serial.data()));
  }

  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    auto cache = std::make_shared<ResultCache>();
    for (std::size_t i = 0; i < instances.size(); ++i) {
      SCOPED_TRACE("instance=" + std::to_string(i));
      ExecutorOptions options;
      options.workers = workers;
      ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                           options, cache);
      par.engine().data().write("in.dat", "in1");
      par.engine().data().write("c.dat", "c1");
      ASSERT_EQ(par.instantiate({}), "");
      par.run();
      for (const auto& [path, content] : instances[i])
        par.engine().data().write(path, content);
      RunStats stats = par.run();
      EXPECT_TRUE(stats.error.empty()) << stats.error;
      EXPECT_TRUE(par.complete());
      EXPECT_EQ(snapshot(par.engine().data()), want[i]);
    }
  }
}

TEST(RuntimeExecutor, RetryFilesOutputsUnderItsOwnInputs) {
  // A first attempt that rewrites its own input and fails: the retry runs
  // on the new input, so the cache must file its outputs under that input.
  // A second instance starting from the old input must then execute, not
  // replay an output that does not match its in.dat.
  FlowTemplate flow;
  flow.name = "retry";
  flow.steps = {
      {"X", {"X", ActionLanguage::Native,
             [](ActionApi& api) {
               std::string in = api.read_data("in.dat").value_or("?");
               if (in == "in1") {
                 api.write_data("in.dat", "in2");
                 return ActionResult{1, "input was stale; refreshed it"};
               }
               api.write_data("out.dat", "X(" + in + ")");
               return ActionResult{0, ""};
             }},
       {}, {}, {"in.dat"}, {"out.dat"}, "", "", ""}};
  ExecutorOptions options;
  options.workers = 1;
  options.max_attempts = 2;
  auto cache = std::make_shared<ResultCache>();
  for (int instance = 0; instance < 2; ++instance) {
    SCOPED_TRACE("instance=" + std::to_string(instance));
    ParallelExecutor par(flow, {}, std::make_unique<SimpleDataManager>(),
                         options, cache);
    par.engine().data().write("in.dat", "in1");
    ASSERT_EQ(par.instantiate({}), "");
    RunStats stats = par.run();
    EXPECT_TRUE(stats.error.empty()) << stats.error;
    EXPECT_EQ(stats.executed, 1);
    EXPECT_EQ(stats.cache_hits, 0);
    EXPECT_EQ(par.engine().data().read("out.dat"),
              std::optional<std::string>("X(in2)"));
  }
}

// -------------------------------------------------------------- the pool

TEST(RuntimePool, NestedRunCompletesWhilePoolIsBusy) {
  // Occupy every pool thread (and one more), then run a 2-worker flow
  // from inside a pool task: its helper must get a thread of its own.
  WorkerPool& pool = WorkerPool::shared();
  const int blockers = pool.threads() + 1;
  std::mutex mu;
  std::condition_variable cv;
  int started = 0, finished = 0;
  bool release = false;
  for (int i = 0; i < blockers; ++i)
    pool.submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ++started;
      cv.notify_all();
      cv.wait(lock, [&] { return release; });
      ++finished;
      cv.notify_all();
    });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started == blockers; });
  }

  std::promise<RunStats> nested;
  std::future<RunStats> result = nested.get_future();
  pool.submit([&nested] {
    ExecutorOptions options;
    options.workers = 2;
    ParallelExecutor par(make_diamond(), {},
                         std::make_unique<SimpleDataManager>(), options);
    par.instantiate({});
    nested.set_value(par.run());
  });
  // Checked before the blockers are released: the run must not need them.
  bool done = result.wait_for(std::chrono::seconds(30)) ==
              std::future_status::ready;
  {
    std::unique_lock<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
    cv.wait(lock, [&] { return finished == blockers; });
  }
  RunStats stats = result.get();  // the task touches locals until then
  EXPECT_TRUE(done) << "a nested run waited for a busy pool thread";
  EXPECT_EQ(stats.executed, 4);
  EXPECT_TRUE(stats.error.empty()) << stats.error;
}

TEST(RuntimePool, SequentialRunsReuseThreads) {
  // Each 2-worker run puts one helper on the pool; run() returns only once
  // that helper is idle again, so the next run reuses it.
  WorkerPool& pool = WorkerPool::shared();
  const int before = pool.threads();
  ExecutorOptions options;
  options.workers = 2;
  for (int i = 0; i < 50; ++i) {
    ParallelExecutor par(make_diamond(), {},
                         std::make_unique<SimpleDataManager>(), options);
    ASSERT_EQ(par.instantiate({}), "");
    RunStats stats = par.run();
    ASSERT_TRUE(par.complete()) << stats.error;
  }
  EXPECT_LE(pool.threads(), std::max(before, 1));
}

TEST(RuntimePool, RunRethrowsAfterEveryCallReturns) {
  // A call that throws, on the caller (0) or on a helper (2), reaches
  // run()'s caller only once every other call has returned: the slow calls
  // below would touch destroyed locals if run() unwound early.
  WorkerPool& pool = WorkerPool::shared();
  for (int thrower : {0, 2}) {
    std::atomic<int> returned{0};
    try {
      pool.run(4, [&](int i) {
        if (i == thrower)
          throw std::runtime_error("call " + std::to_string(i));
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        ++returned;
      });
      ADD_FAILURE() << "run() returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(returned.load(), 3) << "thrower " << thrower;
      EXPECT_EQ(std::string(e.what()), "call " + std::to_string(thrower));
    }
  }
  // Every call throws: one exception reaches the caller, and the helpers
  // are idle again, so the next run starts no thread.
  std::atomic<int> calls{0};
  EXPECT_THROW(pool.run(3,
                        [&](int) {
                          ++calls;
                          throw 7;
                        }),
               int);
  EXPECT_EQ(calls.load(), 3);
  const int threads = pool.threads();
  std::atomic<int> ran{0};
  pool.run(3, [&](int) { ++ran; });
  EXPECT_EQ(ran.load(), 3);
  EXPECT_EQ(pool.threads(), threads);
}

TEST(RuntimeCache, KeyTracksInputContentAndIdentity) {
  SimpleDataManager data;
  data.write("in.dat", "v1");
  StepDef step;
  step.name = "synth";
  step.action = {"synth", ActionLanguage::Native, {}};
  step.reads = {"in.dat"};
  step.writes = {"out.dat"};

  std::uint64_t k1 = step_content_key(step, data);
  EXPECT_EQ(step_content_key(step, data), k1) << "key must be stable";

  data.write("in.dat", "v2");
  std::uint64_t k2 = step_content_key(step, data);
  EXPECT_NE(k1, k2) << "changed input must change the key";

  data.write("in.dat", "v1");
  EXPECT_EQ(step_content_key(step, data), k1)
      << "key is content-addressed, not timestamp-addressed";

  StepDef tagged = step;
  tagged.content_tag = "synth@OtherTool";
  EXPECT_NE(step_content_key(tagged, data), k1)
      << "action identity is part of the key";
}

TEST(RuntimeCache, FifoEviction) {
  ResultCache cache(2);
  cache.store(1, {});
  cache.store(2, {});
  cache.store(3, {});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(RuntimeCache, OverwriteReplacesEntryCompletely) {
  // Regression: store() used to move `entry` into map::emplace (which may
  // consume its argument even when insertion fails) and then move it again
  // on the overwrite path, caching a moved-from, empty effect list.
  ResultCache cache;
  CacheEntry first;
  first.outputs = {{"a.dat", "v1"}};
  first.log = "first";
  cache.store(7, std::move(first));

  CacheEntry second;
  second.outputs = {{"a.dat", "v2"}, {"b.dat", "x"}};
  second.variables = {{"flag", "1"}};
  second.log = "second";
  cache.store(7, std::move(second));

  std::shared_ptr<const CacheEntry> entry = cache.find(7);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->outputs.size(), 2u)
      << "overwrite must replay the new effect list, not a moved-from one";
  EXPECT_EQ(entry->outputs[0].second, "v2");
  ASSERT_EQ(entry->variables.size(), 1u);
  EXPECT_EQ(entry->log, "second");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(RuntimeCache, ClearResetsStats) {
  ResultCache cache;
  cache.store(1, {});
  cache.find(1);
  cache.find(2);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.stores, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(RuntimeJournal, RecordsAndCriticalPath) {
  ParallelExecutor par(make_diamond(), {},
                       std::make_unique<SimpleDataManager>(), {.workers = 2});
  ASSERT_EQ(par.instantiate({}), "");
  par.run();

  auto entries = par.journal().entries();
  ASSERT_EQ(entries.size(), 4u);
  for (const JournalEntry& e : entries) {
    EXPECT_TRUE(e.ok);
    EXPECT_GE(e.worker, 0);
    EXPECT_LE(e.start_us, e.end_us);
  }

  RunJournal::Summary s = par.journal().summary(par.engine().instance());
  EXPECT_EQ(s.executed, 4);
  // The diamond's longest chain is seed -> (left|right) -> join.
  ASSERT_EQ(s.critical_path.size(), 3u);
  EXPECT_EQ(s.critical_path.front(), "seed");
  EXPECT_EQ(s.critical_path.back(), "join");

  std::string json = par.journal().to_json(par.engine().instance());
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  EXPECT_NE(json.find("\"step\":\"seed\""), std::string::npos);
}

}  // namespace
}  // namespace interop::runtime
