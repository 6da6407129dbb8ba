// tapeout_flow: a four-block tape-out flow whose steps call the real tools,
// run by one calling thread on a runtime::ParallelExecutor with two workers
// over a store::PersistentResultCache in a fresh directory (fsync on every
// append, the store's default).
//
// Each block has three independent tool chains, one step each:
//   sch: read_design -> migrate_design -> verify_migration -> write_design
//        on a 200-instance design;
//   hdl: parse -> elaborate -> synthesize -> stepped simulation of the RTL
//        against the synthesised netlist;
//   pnr: make_pnr_workload (64 instances) -> place -> export_via_backplane
//        -> route -> check_routes;
// and a signoff step reads every block's reports. Thirteen steps in all.
//
// The flow runs three ways. Cold: a fresh lineage, so every step executes
// and appends to the store. Warm: a fresh executor on unchanged inputs, so
// every step replays from the cache. Edit: one block gets a new design, so
// only that block's three chains and signoff run. One iteration is
// cold, warm, edit, edit: 25% cold, 25% warm and 50% edit runs, so p50
// falls in the middle of the edit band and p90 inside the cold band. (Warm
// runs take about a millisecond, mostly thread start-up and wake-ups, too
// short to time steadily on a shared host; their median is reported per
// layer as flow_warm_ms.) Block designs
// come from a pool generated from the seed; a cold run takes the next four,
// an edit the next one, so a run cycles through the whole pool many times
// and its cost does not hinge on a few designs.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "base/rng.hpp"
#include "bench.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/parser.hpp"
#include "hdl/sim.hpp"
#include "hdl/synth.hpp"
#include "hdl/writer.hpp"
#include "obs/metrics.hpp"
#include "pnr/backplane.hpp"
#include "pnr/check.hpp"
#include "pnr/generator.hpp"
#include "pnr/place.hpp"
#include "pnr/route.hpp"
#include "runtime/executor.hpp"
#include "runtime/hash.hpp"
#include "schematic/generator.hpp"
#include "schematic/textio.hpp"
#include "spans.hpp"
#include "store/persistent_cache.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace hdl = interop::hdl;
namespace pnr = interop::pnr;
namespace rt = interop::runtime;
namespace sch = interop::sch;
namespace wf = interop::wf;

constexpr int kBlocks = 4;
/// Block designs per seed: 16 iterations' worth. A flow run's time hangs on
/// the designs it touches, so the pool is large enough that its median
/// design, and with it p50, moves little from seed to seed.
constexpr int kPool = 96;
constexpr int kWorkers = 2;
constexpr int kSteps = 3 * kBlocks + 1;
/// In-memory cache bound (one FIFO shard). A flow state needs at most its
/// cold run's 13 entries plus an edit's 4, so warm runs always hit, and the
/// process's memory does not grow with the number of iterations a run fits.
constexpr std::size_t kCacheEntries = 64;

// Per-block tool sizes.
constexpr int kSchComponentsPerSheet = 100;  // 2 sheets: 200 instances
constexpr int kSchNetsPerSheet = 66;
constexpr int kRtlLanes = 4;
constexpr int kRtlWidth = 8;
constexpr int kSimVectors = 96;
constexpr int kPnrInstances = 64;
constexpr int kPnrNets = 24;
constexpr int kPnrDie = 170;

enum class Mode { Cold, Warm, Edit };

const char* to_string(Mode m) {
  return m == Mode::Cold ? "cold" : m == Mode::Warm ? "warm" : "edit";
}

/// Where tool spans go and what the actions count. The calling thread sets
/// the current flow run's ids before each run; executor workers read them.
struct ToolContext {
  SpanRecorder* rec = nullptr;
  std::atomic<std::uint64_t> request{0};
  std::atomic<std::uint64_t> parent{0};
  std::atomic<std::uint64_t> gates{0};
  std::atomic<std::uint64_t> wirelength{0};
  std::atomic<std::uint64_t> failed_nets{0};
  std::atomic<std::uint64_t> callbacks{0};
  std::atomic<std::uint64_t> sch_runs{0};
  std::atomic<std::uint64_t> instances{0};
  std::atomic<std::uint64_t> design_bytes{0};

  ScopedSpan span(const char* name) {
    return ScopedSpan(rec, request.load(), parent.load(), name);
  }
  /// Forget the warm-up: drop its spans and zero the counts.
  void reset() {
    if (rec) rec->clear();
    for (auto* c : {&gates, &wirelength, &failed_nets, &callbacks, &sch_runs,
                    &instances, &design_bytes})
      *c = 0;
  }
};

using Outputs = std::vector<std::pair<std::string, std::string>>;

std::string make_rtl(std::uint64_t seed) {
  static const char* kOps[] = {"a + b", "a ^ b", "(a & b) | (a ^ b)",
                               "~a & b", "a | b", "b + b"};
  interop::base::Rng rng(seed);
  std::ostringstream o;
  o << "module blk(s";
  for (int i = 0; i < kRtlLanes; ++i)
    o << ", a" << i << ", b" << i << ", y" << i;
  o << ");\n  input [1:0] s;\n";
  for (int i = 0; i < kRtlLanes; ++i)
    o << "  input [" << kRtlWidth - 1 << ":0] a" << i << ", b" << i << ";\n"
      << "  output [" << kRtlWidth - 1 << ":0] y" << i << ";\n"
      << "  reg [" << kRtlWidth - 1 << ":0] y" << i << ";\n";
  for (int i = 0; i < kRtlLanes; ++i) {
    std::string a = "a" + std::to_string(i), b = "b" + std::to_string(i);
    o << "  always @(s or " << a << " or " << b << ") begin\n    case (s)\n";
    for (int arm = 0; arm < 4; ++arm) {
      std::string op = kOps[rng.index(std::size(kOps))];
      std::string expr;
      for (char ch : op) {
        if (ch == 'a') expr += a;
        else if (ch == 'b') expr += b;
        else expr += ch;
      }
      o << "      " << (arm < 3 ? std::to_string(arm) : std::string("default"))
        << ": y" << i << " = " << expr << ";\n";
    }
    o << "    endcase\n  end\n";
  }
  o << "endmodule\n";
  return o.str();
}

Outputs run_schematic(const std::string& text,
                      const sch::MigrationConfig& config, ToolContext& t) {
  interop::base::DiagnosticEngine diags, verify_diags;
  std::optional<sch::Design> src;
  {
    ScopedSpan s = t.span("schematic.read_design");
    src.emplace(sch::read_design(text, diags));
  }
  std::optional<sch::MigrationResult> result;
  {
    ScopedSpan s = t.span("schematic.migrate_design");
    result.emplace(sch::migrate_design(*src, config, diags));
  }
  std::size_t diffs = 0;
  {
    ScopedSpan s = t.span("schematic.verify_migration");
    diffs = sch::verify_migration(*src, result->design, config, verify_diags)
                .size();
  }
  std::string migrated;
  {
    ScopedSpan s = t.span("schematic.write_design");
    migrated = sch::write_design(result->design);
  }
  std::size_t callbacks = result->report.props.callbacks_run;
  t.callbacks += callbacks;
  t.sch_runs += 1;
  t.instances += src->instance_count();
  t.design_bytes += text.size();
  return {{"migrated.sch", migrated},
          {"sch.report", "diffs=" + std::to_string(diffs) +
                             " callbacks=" + std::to_string(callbacks) +
                             " instances=" +
                             std::to_string(src->instance_count()) + "\n"}};
}

Outputs run_hdl(const std::string& rtl, ToolContext& t) {
  hdl::SourceUnit unit;
  {
    ScopedSpan s = t.span("hdl.parse");
    unit = hdl::parse(rtl);
  }
  const hdl::Module& top = unit.modules.at(0);
  hdl::ElabDesign rtl_design;
  {
    ScopedSpan s = t.span("hdl.elaborate");
    rtl_design = hdl::elaborate(unit, top.name);
  }
  hdl::SynthResult syn;
  std::string netlist_text;
  {
    ScopedSpan s = t.span("hdl.synthesize");
    syn = hdl::synthesize(top, hdl::vendor_b_subset());
    if (!syn.ok)
      throw std::runtime_error(
          "synthesis rejected the block: " +
          (syn.violations.empty() ? std::string("?")
                                  : syn.violations[0].message));
    netlist_text = hdl::write_module(syn.netlist);
  }
  const std::string net_top = syn.netlist.name;
  hdl::SourceUnit net_unit;
  net_unit.modules.push_back(std::move(syn.netlist));
  hdl::ElabDesign net_design;
  {
    ScopedSpan s = t.span("hdl.elaborate");
    net_design = hdl::elaborate(net_unit, net_top);
  }

  // Stepped simulation: drive the same random vectors into both, compare
  // every output bit after each step.
  int mismatches = 0;
  rt::Fnv1a sig;
  {
    ScopedSpan s = t.span("hdl.sim");
    std::map<std::string, std::string> flat(syn.name_map.begin(),
                                            syn.name_map.end());
    auto bits = [&](const std::string& port, int width) {
      std::vector<std::pair<hdl::SignalId, hdl::SignalId>> ids;
      for (int k = width - 1; k >= 0; --k) {
        std::string bit = port + "[" + std::to_string(k) + "]";
        auto it = flat.find(bit);
        if (it == flat.end())
          throw std::runtime_error("synthesis name map has no " + bit);
        ids.push_back({rtl_design.signal(top.name + "." + bit),
                       net_design.signal(net_top + "." + it->second)});
      }
      return ids;
    };
    std::vector<std::pair<hdl::SignalId, hdl::SignalId>> in = bits("s", 2), out;
    for (int i = 0; i < kRtlLanes; ++i) {
      for (const char* p : {"a", "b"})
        for (auto id : bits(p + std::to_string(i), kRtlWidth)) in.push_back(id);
      for (auto id : bits("y" + std::to_string(i), kRtlWidth))
        out.push_back(id);
    }
    hdl::Simulation rtl_sim(rtl_design, hdl::SchedulerPolicy::SourceOrder);
    hdl::Simulation net_sim(net_design, hdl::SchedulerPolicy::SourceOrder);
    interop::base::Rng rng(rt::fnv1a(rtl));
    std::int64_t now = 0;
    for (int v = 0; v < kSimVectors; ++v) {
      for (auto [r, n] : in) {
        hdl::Logic value = hdl::logic_of(rng.chance(0.5));
        rtl_sim.force(r, value);
        net_sim.force(n, value);
      }
      now += 10;
      rtl_sim.run(now);
      net_sim.run(now);
      for (auto [r, n] : out) {
        hdl::Logic a = rtl_sim.value(r);
        if (a != net_sim.value(n)) ++mismatches;
        sig.update(std::string(1, hdl::to_char(a)));
      }
    }
  }
  t.gates += std::uint64_t(syn.gates_emitted);
  return {{"netlist.v", netlist_text},
          {"sim.report", "gates=" + std::to_string(syn.gates_emitted) +
                             " vectors=" + std::to_string(kSimVectors) +
                             " mismatches=" + std::to_string(mismatches) +
                             " sig=" + rt::to_hex(sig.digest()) + "\n"}};
}

Outputs run_pnr(const std::string& spec, ToolContext& t) {
  pnr::PnrGenOptions gen;
  unsigned long long seed = 0;
  long long die = 0;
  if (std::sscanf(spec.c_str(), "seed=%llu instances=%d nets=%d die=%lld",
                  &seed, &gen.instances, &gen.nets, &die) != 4)
    throw std::runtime_error("bad pnr spec: " + spec);
  gen.seed = seed;
  gen.die_w = gen.die_h = die;
  std::optional<pnr::PhysDesign> design;
  {
    ScopedSpan s = t.span("pnr.generate");
    design.emplace(pnr::make_pnr_workload(gen));
  }
  pnr::PlaceResult placed;
  {
    ScopedSpan s = t.span("pnr.place");
    pnr::PlaceOptions popt;
    popt.seed = seed;
    popt.row_height = 14;  // the generator's routing-channel pitch
    placed = pnr::place(*design, popt);
  }
  interop::base::DiagnosticEngine diags;
  pnr::LossReport loss;
  std::optional<pnr::ToolInput> input;
  {
    ScopedSpan s = t.span("pnr.export");
    input.emplace(pnr::export_via_backplane(*design, pnr::router_alpha_caps(),
                                            loss, diags));
  }
  pnr::RouteResult routes;
  {
    ScopedSpan s = t.span("pnr.route");
    routes = pnr::route(*input);
  }
  pnr::CheckResult check;
  {
    ScopedSpan s = t.span("pnr.check");
    check = pnr::check_routes(*design, routes);
  }
  rt::Fnv1a sig;
  for (const pnr::RoutedNet& net : routes.nets) {
    sig.update(net.name);
    for (const auto& cell : net.cells) {
      sig.update_u64(std::uint64_t(cell.x));
      sig.update_u64(std::uint64_t(cell.y));
    }
  }
  t.wirelength += std::uint64_t(routes.wirelength);
  t.failed_nets += std::uint64_t(routes.failed_nets);
  return {{"route.report",
           "hpwl=" + std::to_string(placed.hpwl_final) +
               " wirelength=" + std::to_string(routes.wirelength) +
               " failed=" + std::to_string(routes.failed_nets) +
               " violations=" + std::to_string(check.total()) +
               " conveyed=" + std::to_string(loss.conveyed) + "/" +
               std::to_string(loss.total) + " sig=" + rt::to_hex(sig.digest()) +
               "\n"}};
}

/// One block design: the input of each chain, and the reference outputs
/// (path suffix -> content) the chains produced when called directly.
struct BlockDesign {
  std::string design, rtl, pnr;
  std::map<std::string, std::string> ref;
};

std::string block_dir(int b) { return "b" + std::to_string(b) + "/"; }

/// The inputs of one flow state: per block, which pool design and which
/// revision.
struct FlowState {
  std::uint64_t lineage = 0;
  std::size_t design[kBlocks] = {};
  int rev[kBlocks] = {};

  std::string rev_text(int b) const {
    return "lineage=" + std::to_string(lineage) +
           " rev=" + std::to_string(rev[b]) + "\n";
  }
};

struct Shared {
  sch::MigrationConfig migration;
  std::vector<BlockDesign> pool;
};

wf::Action tool_action(std::string name, std::string input, std::string dir,
                       std::function<Outputs(const std::string&)> tool) {
  return {name, wf::ActionLanguage::Native,
          [input, dir, tool](wf::ActionApi& api) {
            std::optional<std::string> text = api.read_data(dir + input);
            if (!text) return wf::ActionResult{1, "missing " + dir + input};
            try {
              for (auto& [suffix, content] : tool(*text))
                api.write_data(dir + suffix, std::move(content));
            } catch (const std::exception& e) {
              return wf::ActionResult{1, e.what()};
            }
            return wf::ActionResult{0, ""};
          }};
}

/// What signoff reads from every block, in order.
constexpr const char* kSignoffFiles[] = {"sch.report", "sim.report",
                                         "route.report", "rev"};

std::vector<std::string> signoff_reads() {
  std::vector<std::string> reads;
  for (int b = 0; b < kBlocks; ++b)
    for (const char* f : kSignoffFiles) reads.push_back(block_dir(b) + f);
  return reads;
}

std::string signoff_text(const std::vector<std::string>& contents) {
  rt::Fnv1a h;
  for (const std::string& c : contents) h.update(c);
  return "signoff=" + rt::to_hex(h.digest()) + "\n";
}

wf::FlowTemplate make_flow(const Shared& sh, ToolContext& ctx) {
  wf::FlowTemplate flow;
  flow.name = "tapeout";
  wf::StepDef signoff;
  signoff.name = "signoff";
  for (int b = 0; b < kBlocks; ++b) {
    std::string dir = block_dir(b);
    auto add = [&](const char* chain, const char* input,
                   std::vector<std::string> writes,
                   std::function<Outputs(const std::string&)> tool) {
      wf::StepDef step;
      step.name = "b" + std::to_string(b) + "." + chain;
      step.reads = {dir + input, dir + "rev"};
      for (std::string& w : writes) w = dir + w;
      step.writes = std::move(writes);
      step.content_tag = std::string("perfbench.tapeout.") + chain;
      step.action = tool_action(step.name, input, dir, std::move(tool));
      signoff.start_after.push_back(step.name);
      flow.steps.push_back(std::move(step));
    };
    add("sch", "design.sch", {"migrated.sch", "sch.report"},
        [&sh, &ctx](const std::string& text) {
          return run_schematic(text, sh.migration, ctx);
        });
    add("hdl", "rtl.v", {"netlist.v", "sim.report"},
        [&ctx](const std::string& text) { return run_hdl(text, ctx); });
    add("pnr", "pnr.cfg", {"route.report"},
        [&ctx](const std::string& text) { return run_pnr(text, ctx); });
  }
  signoff.reads = signoff_reads();
  signoff.writes = {"signoff.txt"};
  signoff.content_tag = "perfbench.tapeout.signoff";
  std::vector<std::string> reads = signoff.reads;
  signoff.action = {"signoff", wf::ActionLanguage::Native,
                    [reads](wf::ActionApi& api) {
                      std::vector<std::string> contents;
                      for (const std::string& r : reads)
                        contents.push_back(api.read_data(r).value_or("?"));
                      api.write_data("signoff.txt", signoff_text(contents));
                      return wf::ActionResult{0, ""};
                    }};
  flow.steps.push_back(std::move(signoff));
  return flow;
}

Shared make_shared_inputs(std::uint64_t seed) {
  Shared sh;
  sh.migration = service_migration_config();
  ToolContext quiet;
  sh.pool.resize(kPool);
  parallel_for(kPool, [&](int i) {
    std::uint64_t s = derive_seed(seed, std::uint64_t(i));
    BlockDesign& d = sh.pool[std::size_t(i)];
    sch::GeneratorOptions gen;
    gen.seed = s;
    gen.components_per_sheet = kSchComponentsPerSheet;
    gen.nets_per_sheet = kSchNetsPerSheet;
    d.design = sch::write_design(sch::make_exar_scenario(gen).source);
    d.rtl = make_rtl(s);
    d.pnr = "seed=" + std::to_string(s % 1000000007ull) +
            " instances=" + std::to_string(kPnrInstances) +
            " nets=" + std::to_string(kPnrNets) +
            " die=" + std::to_string(kPnrDie);
    // Reference outputs straight from the tool chains.
    for (const Outputs& outs : {run_schematic(d.design, sh.migration, quiet),
                                run_hdl(d.rtl, quiet), run_pnr(d.pnr, quiet)})
      for (const auto& [k, c] : outs) d.ref[k] = c;
  });
  return sh;
}

/// The cache the traced run uses: spans around every lookup and store.
class TracedCache : public interop::store::PersistentResultCache {
 public:
  explicit TracedCache(ToolContext& ctx)
      : PersistentResultCache(kCacheEntries), ctx_(ctx) {}
  std::shared_ptr<const rt::CacheEntry> find(std::uint64_t key) const override {
    ScopedSpan s = ctx_.span("runtime.cache_find");
    return PersistentResultCache::find(key);
  }
  void store(std::uint64_t key, rt::CacheEntry entry) override {
    ScopedSpan s = ctx_.span("store.append");
    PersistentResultCache::store(key, std::move(entry));
  }

 private:
  ToolContext& ctx_;
};

struct RunRecord {
  Mode mode;
  int segment;
  Sample sample;
  rt::RunStats stats;
};

/// Empty when the run's outputs and counters match the references.
std::string check_run(const Shared& sh, const FlowState& st, Mode mode,
                      const rt::RunStats& stats, rt::ParallelExecutor& ex) {
  if (!stats.error.empty()) return "flow error: " + stats.error;
  if (stats.failures != 0 || !ex.complete())
    return std::string(to_string(mode)) + " run had failed steps";
  int want_exec = mode == Mode::Cold ? kSteps : mode == Mode::Warm ? 0 : 4;
  if (stats.executed != want_exec || stats.cache_hits != kSteps - want_exec)
    return std::string(to_string(mode)) + " run executed " +
           std::to_string(stats.executed) + " and replayed " +
           std::to_string(stats.cache_hits) + " steps";
  wf::DataManager& data = ex.engine().data();
  for (int b = 0; b < kBlocks; ++b)
    for (const auto& [suffix, content] : sh.pool[st.design[b]].ref)
      if (data.read(block_dir(b) + suffix) != content)
        return std::string(to_string(mode)) + " run: " + block_dir(b) + suffix +
               " differs from the reference";
  std::vector<std::string> contents;
  for (int b = 0; b < kBlocks; ++b)
    for (const std::string file : kSignoffFiles)
      contents.push_back(file == "rev" ? st.rev_text(b)
                                       : sh.pool[st.design[b]].ref.at(file));
  if (data.read("signoff.txt") != signoff_text(contents))
    return std::string(to_string(mode)) + " run: signoff differs";
  return {};
}

struct Phase {
  std::vector<RunRecord> runs;
  std::vector<Segment> segments;
  interop::store::ObjectStore::Stats store0, store1;
  rt::ResultCache::Stats cache0, cache1;
  double busy0_us = 0, busy1_us = 0;
};

double registry_busy_us() {
  interop::obs::Metrics& g = interop::obs::Metrics::global();
  return double(g.histogram("runtime.step_us").sum() +
                g.histogram("runtime.replay_us").sum());
}

/// One warm-up iteration, then whole iterations until opt.phase_seconds()
/// pass, in kSegments segments, with the host probed throughout.
Phase run_phase(const Shared& sh, const Options& opt, const std::string& dir,
                ToolContext& ctx, Report& report) {
  fs::remove_all(dir);
  std::shared_ptr<interop::store::PersistentResultCache> cache;
  if (ctx.rec)
    cache = std::make_shared<TracedCache>(ctx);
  else
    cache = std::make_shared<interop::store::PersistentResultCache>(
        kCacheEntries);
  if (!cache->open(dir)) {
    report.fail("store open failed: " + cache->object_store().error());
    return {};
  }
  rt::ExecutorOptions eopt;
  eopt.workers = kWorkers;

  Phase phase;
  phase.segments.resize(kSegments);
  for (Segment& seg : phase.segments) seg.clients.resize(1);
  FlowState st;
  std::size_t next_design = 0;
  int edits = 0;
  int segment = 0;
  auto run_one = [&](Mode mode, bool measured) {
    auto data = std::make_unique<wf::SimpleDataManager>();
    for (int b = 0; b < kBlocks; ++b) {
      const BlockDesign& in = sh.pool[st.design[b]];
      std::string d = block_dir(b);
      data->write(d + "design.sch", in.design);
      data->write(d + "rtl.v", in.rtl);
      data->write(d + "pnr.cfg", in.pnr);
      data->write(d + "rev", st.rev_text(b));
    }
    std::uint64_t request = ctx.rec ? ctx.rec->next_id() : 0;
    ctx.request = request;
    std::uint64_t t0 = now_ns();
    ScopedSpan root(ctx.rec, request, 0, "flow");
    std::optional<rt::ParallelExecutor> ex;
    {
      ScopedSpan s(ctx.rec, request, root.id(), "runtime.instantiate");
      ex.emplace(make_flow(sh, ctx), std::map<std::string, wf::FlowTemplate>{},
                 std::move(data), eopt, cache);
      ex->instantiate({});
    }
    rt::RunStats stats;
    {
      ScopedSpan s(ctx.rec, request, root.id(), "runtime.run");
      ctx.parent = s.id();
      stats = ex->run();
    }
    root.end();
    std::uint64_t t1 = now_ns();
    ++report.attempted;
    std::string why = check_run(sh, st, mode, stats, *ex);
    if (!why.empty()) return report.fail(why);
    if (!measured) return;
    phase.runs.push_back({mode, segment, {t1, ms_between(t0, t1)}, stats});
    phase.segments[std::size_t(segment)].clients[0].push_back(
        phase.runs.back().sample);
  };
  auto iteration = [&](bool measured) {
    ++st.lineage;
    for (int b = 0; b < kBlocks; ++b) {
      st.design[b] = next_design++ % kPool;
      st.rev[b] = 0;
    }
    run_one(Mode::Cold, measured);
    run_one(Mode::Warm, measured);
    for (int e = 0; e < 2; ++e) {
      int b = edits++ % kBlocks;
      st.design[b] = next_design++ % kPool;
      ++st.rev[b];
      run_one(Mode::Edit, measured);
    }
  };

  iteration(false);
  ctx.reset();
  phase.store0 = cache->object_store().stats();
  phase.cache0 = cache->stats();
  phase.busy0_us = registry_busy_us();
  const std::uint64_t segment_ns =
      std::uint64_t(opt.phase_seconds() / kSegments * 1e9);
  HostProbe probe;
  for (segment = 0; segment < kSegments; ++segment) {
    Segment& seg = phase.segments[std::size_t(segment)];
    seg.start_ns = now_ns();
    while (now_ns() < seg.start_ns + segment_ns) iteration(true);
    seg.end_ns = now_ns();
  }
  probe.stop();
  assign_probes(phase.segments, probe);
  phase.store1 = cache->object_store().stats();
  phase.cache1 = cache->stats();
  phase.busy1_us = registry_busy_us();
  cache.reset();
  fs::remove_all(dir);
  return phase;
}

/// Flow run times at reference speed.
std::vector<double> times(const Phase& p, std::optional<Mode> mode = {}) {
  std::vector<double> v;
  for (const RunRecord& r : p.runs)
    if (!mode || r.mode == *mode)
      v.push_back(r.sample.ms * p.segments[std::size_t(r.segment)].scale());
  return v;
}

}  // namespace

void run_tapeout_flow(const Options& opt, Report& report) {
  fs::create_directories(opt.workdir);
  Shared sh = make_shared_inputs(opt.seed);

  // setup_s: a warm restart. Build the resident tool models and open a
  // store left by an earlier run, which rebuilds the in-memory cache
  // from it. The store holds every pool design's chain outputs, written
  // once here and not timed. Closing the store is not timed either.
  const std::string warm_dir = opt.workdir + "/warm-store";
  fs::remove_all(warm_dir);
  {
    interop::store::PersistentResultCache seed_cache;
    if (!seed_cache.open(warm_dir))
      report.fail("store open failed: " + seed_cache.object_store().error());
    for (const BlockDesign& d : sh.pool)
      for (const auto& [suffix, content] : d.ref) {
        rt::CacheEntry entry;
        entry.outputs.push_back({suffix, content});
        seed_cache.store(rt::fnv1a(suffix + content), std::move(entry));
      }
  }
  std::vector<double> setups, opens;
  double probe = probe_host_ms(kProbeSeconds);
  for (std::uint64_t begin = now_ns(); more_setups(setups.size(), begin);) {
    std::uint64_t t0 = now_ns();
    sch::MigrationConfig config = service_migration_config();
    auto cache =
        std::make_unique<interop::store::PersistentResultCache>(kCacheEntries);
    std::uint64_t t1 = now_ns();
    bool ok = cache->open(warm_dir);
    std::uint64_t t2 = now_ns();
    setups.push_back(double(t2 - t0) / 1e9);
    opens.push_back(double(t2 - t1) / 1e6);
    if (!ok) report.fail("store open failed: " + cache->object_store().error());
  }
  fs::remove_all(warm_dir);
  probe = (probe + probe_host_ms(kProbeSeconds)) / 2;
  report.end_to_end["setup_s"] = setup_seconds(setups, probe, report);

  ToolContext base_ctx;
  Phase base = run_phase(sh, opt, opt.workdir + "/flow", base_ctx, report);
  std::vector<double> all = times(base);
  PhaseStats w = summarize(base.segments);
  report.end_to_end["throughput_rps"] = w.throughput_rps;
  report.end_to_end["latency_p50_ms"] = w.p50_ms;
  report.end_to_end["latency_p90_ms"] = w.p90_ms;
  report.notes.push_back(w.per_segment);
  report.per_layer["latency_p99_ms"] = percentile(all, 99);
  report.per_layer["host.probe_ms"] = w.probe_ms;
  double cold = median(times(base, Mode::Cold));
  double warm = median(times(base, Mode::Warm));
  double edit = median(times(base, Mode::Edit));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "flow runs: %zu (%zu cold, %zu edit, %zu warm); medians ms: "
                "cold %.3f, edit %.3f, warm %.3f",
                all.size(), times(base, Mode::Cold).size(),
                times(base, Mode::Edit).size(), times(base, Mode::Warm).size(),
                cold, edit, warm);
  report.notes.push_back(buf);
  report.per_layer["flow_cold_ms"] = cold;
  report.per_layer["flow_warm_ms"] = warm;
  report.per_layer["flow_edit_ms"] = edit;
  if (!opt.trace) return;

  // ---- traced run: same seed, same inputs, a fresh store.
  SpanRecorder rec;
  ToolContext ctx;
  ctx.rec = &rec;
  Phase traced = run_phase(sh, opt, opt.workdir + "/flow-traced", ctx, report);
  double n = double(traced.runs.size());
  if (n <= 0) n = 1;
  SelfTimes st = self_times(rec.spans());
  auto self_ms = [&](const char* name) { return st.self_of(name) / n / 1e6; };
  auto& L = report.per_layer;
  for (const char* s : {"read_design", "migrate_design", "verify_migration",
                        "write_design", "extract_netlist"})
    L[std::string("schematic.") + s + "_ms"] =
        self_ms(("schematic." + std::string(s)).c_str());
  double sch_runs = double(ctx.sch_runs.load());
  L["schematic.instances"] =
      sch_runs > 0 ? double(ctx.instances) / sch_runs : 0;
  L["schematic.design_kb"] =
      sch_runs > 0 ? double(ctx.design_bytes) / 1024.0 / sch_runs : 0;
  L["al.callbacks_run"] = double(ctx.callbacks) / n;

  double executed = 0, hits = 0, batches = 0, steals = 0, wall_us = 0;
  for (const RunRecord& r : traced.runs) {
    executed += r.stats.executed;
    hits += r.stats.cache_hits;
    batches += r.stats.batches;
    steals += r.stats.steals;
    wall_us += double(r.stats.wall_us);
  }
  L["runtime.run_ms"] = self_ms("runtime.run") +
                        self_ms("runtime.instantiate") +
                        self_ms("runtime.cache_find");
  L["runtime.executed"] = executed / n;
  L["runtime.cache_hits"] = hits / n;
  L["runtime.hit_ratio"] = executed + hits > 0 ? hits / (executed + hits) : 0;
  L["runtime.cache_stores"] =
      double(traced.cache1.stores - traced.cache0.stores) / n;
  L["runtime.cache_evictions"] =
      double(traced.cache1.evictions - traced.cache0.evictions) / n;
  L["runtime.batches"] = batches / n;
  L["runtime.steals"] = steals / n;
  L["runtime.utilization"] =
      wall_us > 0
          ? (traced.busy1_us - traced.busy0_us) / (wall_us * kWorkers)
          : 0;

  L["store.open_ms"] = median(opens) * kReferenceProbeMs / probe;
  L["store.appends"] =
      double(traced.store1.appends - traced.store0.appends) / n;
  L["store.appended_bytes"] =
      double(traced.store1.appended_bytes - traced.store0.appended_bytes) / n;
  L["store.dedup_hits"] =
      double(traced.store1.dedup_hits - traced.store0.dedup_hits) / n;

  L["hdl.parse_ms"] = self_ms("hdl.parse");
  L["hdl.elaborate_ms"] = self_ms("hdl.elaborate");
  L["hdl.synthesize_ms"] = self_ms("hdl.synthesize");
  L["hdl.sim_ms"] = self_ms("hdl.sim");
  L["hdl.gates"] = double(ctx.gates) / n;

  L["pnr.generate_ms"] = self_ms("pnr.generate");
  L["pnr.place_ms"] = self_ms("pnr.place");
  L["pnr.export_ms"] = self_ms("pnr.export");
  L["pnr.route_ms"] = self_ms("pnr.route");
  L["pnr.check_ms"] = self_ms("pnr.check");
  L["pnr.wirelength"] = double(ctx.wirelength) / n;
  L["pnr.failed_nets"] = double(ctx.failed_nets) / n;

  L["trace.unattributed_pct"] =
      st.root_ns > 0 ? st.root_self_ns / st.root_ns * 100 : 0;
  L["trace.overhead_pct"] =
      (percentile(times(traced), 50) - percentile(all, 50)) /
      percentile(all, 50) * 100;

  report.notes.push_back("traced flow runs: " +
                         std::to_string(traced.runs.size()));
  report.notes.push_back("spans (self time per flow run; share of flow wall):");
  for (const std::string& line : self_time_table(st, n))
    report.notes.push_back("  " + line);
}

}  // namespace perfbench
