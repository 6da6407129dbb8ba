// The parallel flow runtime: determinism vs the serial engine, content-
// addressed memoization, the run journal, livelock detection, and a
// ThreadSanitizer-friendly many-worker stress test (see the "tsan" preset
// in CMakePresets.json, which runs exactly the Runtime* tests).

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "runtime/cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/hash.hpp"
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
  EXPECT_EQ(serial.run_all(), 4);
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
    serial.run_all();
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
                       {.workers = 2, .livelock_limit = 6},
                       /*cache=*/nullptr);
  ASSERT_EQ(par.instantiate({}), "");
  RunStats stats = par.run();
  EXPECT_TRUE(stats.livelock);
  EXPECT_NE(stats.error.find("livelock"), std::string::npos);
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
