#pragma once
// The event-driven simulation kernel, with a pluggable scheduling policy.
//
// §3.1 of the paper: "simulation results depend on the scheduling algorithm
// the simulator uses to order and process events. Different Verilog
// simulators can legitimately disagree on the outcome of the same
// simulation, because the simulation cycle and processing order for
// simultaneous events are not completely defined by the language."
//
// The kernel is one implementation; SchedulerPolicy selects the order in
// which simultaneously-ready processes run. Every policy is a LEGAL
// simulator. A model whose observable results differ across policies has a
// race condition (see race.hpp).
//
// Hot-path data structures are dense and index-addressed (ready bitmap,
// binary heaps, epoch-stamped change lists, a reusable eval scratch arena)
// but every selection rule is bit-identical to the reference tree-based
// kernel: each policy still observes the ready set in ascending ProcId
// order, scheduled updates still mature in (time, seq) order, and thread
// wake-ups stay FIFO within a timestep. tests/hdl_sim_golden_test.cpp holds
// per-policy trace hashes captured from the reference kernel.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hdl/elaborate.hpp"

namespace interop::hdl {

/// How simultaneously-ready processes are ordered within one delta cycle.
enum class SchedulerPolicy : std::uint8_t {
  SourceOrder,     ///< ascending process id ("vendor A")
  ReverseOrder,    ///< descending process id ("vendor B")
  Seeded,          ///< deterministic pseudo-random order from `seed`
};

std::string to_string(SchedulerPolicy p);

/// One end-of-timestep observation: at `time`, `signal` settled to `value`.
struct TraceEvent {
  std::int64_t time;
  SignalId signal;
  Logic value;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
  friend auto operator<=>(const TraceEvent&, const TraceEvent&) = default;
};

/// A complete run's observations of the watched signals.
using Trace = std::vector<TraceEvent>;

namespace detail {

/// A dense ordered set of small integer ids: a bitmap of 64-bit words plus
/// a population count. Selection enumerates set bits in ascending id order,
/// which makes min / max / n-th-smallest selection agree exactly with
/// std::set iteration — the property every SchedulerPolicy depends on.
class DenseReadySet {
 public:
  void reset(std::size_t universe);
  void insert(std::uint32_t id);
  void erase(std::uint32_t id);
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::uint32_t first() const;                 ///< smallest set id
  std::uint32_t last() const;                  ///< largest set id
  std::uint32_t nth(std::size_t n) const;      ///< n-th smallest (0-based)

 private:
  std::vector<std::uint64_t> words_;
  std::size_t count_ = 0;
};

/// A LIFO pool of reusable Logic vectors: the eval scratch arena. Buffers
/// keep their capacity across acquire/release, so steady-state expression
/// evaluation performs no heap allocation.
class LogicScratch {
 public:
  std::vector<Logic>& acquire() {
    if (top_ == bufs_.size())
      bufs_.push_back(std::make_unique<std::vector<Logic>>());
    std::vector<Logic>& v = *bufs_[top_++];
    v.clear();
    return v;
  }
  void release() { --top_; }

 private:
  std::vector<std::unique_ptr<std::vector<Logic>>> bufs_;
  std::size_t top_ = 0;
};

}  // namespace detail

class Simulation {
 public:
  /// The design must outlive the simulation.
  Simulation(const ElabDesign& design, SchedulerPolicy policy,
             std::uint64_t seed = 1);

  /// Current value of a signal.
  Logic value(SignalId id) const { return values_[id]; }
  Logic value(const std::string& bit_name) const;

  /// Drive a signal from the testbench at the current time (counts as an
  /// update event; fan-out processes wake).
  void force(SignalId id, Logic v);

  /// Watch a signal: end-of-timestep changes are recorded in trace().
  void watch(SignalId id) { watched_[id] = 1; }
  void watch_all();

  /// Advance simulation until `until` (inclusive of events at `until`), or
  /// until the event queue drains, whichever is first. Returns the time of
  /// the last processed event.
  std::int64_t run(std::int64_t until);

  std::int64_t now() const { return now_; }
  const Trace& trace() const { return trace_; }

  /// Total delta cycles executed (kernel effort metric for benches).
  std::uint64_t delta_cycles() const { return deltas_; }
  /// Runaway guard: throw after this many deltas within one timestep.
  void set_delta_limit(std::uint64_t n) { delta_limit_ = n; }

 private:
  // Process identity: gates, assigns, always blocks, initial threads share
  // one id space (in that order).
  using ProcId = std::uint32_t;

  struct PendingUpdate {
    std::int64_t time;
    std::uint64_t seq;  ///< FIFO tiebreak
    SignalId signal;
    Logic value;
    bool operator<(const PendingUpdate& o) const {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
  };

  struct ThreadWakeup {
    std::int64_t time;
    std::uint64_t seq;  ///< FIFO tiebreak among simultaneous wake-ups
    std::size_t thread;
    bool operator<(const ThreadWakeup& o) const {
      if (time != o.time) return time < o.time;
      return seq < o.seq;
    }
  };

  // Initial-block thread state: an explicit continuation stack.
  struct Frame {
    const RStmt* stmt;
    std::size_t index;   ///< next child for Block/Forever; phase for Delay
  };
  struct Thread {
    std::vector<Frame> stack;
    bool done = false;
  };

  void schedule_process(ProcId p) { ready_.insert(p); }
  void schedule_wakeup(std::int64_t time, std::size_t thread_index);
  void wake_fanout(SignalId sig, Logic old_value, Logic new_value);
  void run_process(ProcId p);
  void run_gate(const GateProcess& g);
  void run_assign(const AssignProcess& a);
  void run_always(const AlwaysProcess& a);
  void resume_thread(std::size_t thread_index);
  /// Returns true when the thread suspended (delay scheduled).
  bool step_thread(Thread& t, std::size_t thread_index);

  void exec_stmt_run_to_completion(const RStmt& s);
  void eval_into(const RExpr& e, std::vector<Logic>& out) const;
  Logic eval_scalar(const RExpr& e) const;

  void post_update(SignalId sig, Logic v, std::int64_t delay);
  void apply_update(SignalId sig, Logic v);
  void settle_timestep();   ///< run deltas + NBA until stable
  ProcId next_ready();

  const ElabDesign& design_;
  SchedulerPolicy policy_;
  std::uint64_t rng_state_;

  std::vector<Logic> values_;
  // Static fan-out: signal -> processes sensitive to it (with edge kinds
  // for always blocks).
  struct Waiter {
    ProcId proc;
    EdgeKind edge;
  };
  std::vector<std::vector<Waiter>> fanout_;

  detail::DenseReadySet ready_;
  std::vector<std::pair<SignalId, Logic>> nba_queue_;
  std::vector<std::pair<SignalId, Logic>> nba_scratch_;
  // Scheduled updates: binary min-heap on (time, seq). seq is unique, so
  // pop order equals the reference std::multiset iteration order.
  std::vector<PendingUpdate> future_;
  std::uint64_t seq_ = 0;

  std::vector<Thread> threads_;
  // Thread wake-ups: binary min-heap on (time, seq); FIFO per timestep,
  // matching the reference std::multimap's equal-key insertion order.
  std::vector<ThreadWakeup> thread_wakeups_;
  std::uint64_t wake_seq_ = 0;
  std::vector<std::size_t> due_scratch_;

  std::int64_t now_ = 0;
  /// `now_` has been counted in hdl.sim.timesteps. A resumed run() settles
  /// the current time again (host inputs may have changed in between) but
  /// does not count it twice.
  bool now_counted_ = false;
  std::uint64_t deltas_ = 0;
  std::uint64_t delta_limit_ = 100000;

  std::vector<std::uint8_t> watched_;
  // Per-timestep change tracking: epoch stamp + step-start value per
  // signal, plus a dense list of touched signals (sorted at snapshot time
  // to match the reference std::map's ascending-id iteration).
  std::vector<std::uint64_t> changed_stamp_;
  std::vector<Logic> changed_old_;
  std::vector<SignalId> changed_list_;
  std::uint64_t step_epoch_ = 1;

  mutable detail::LogicScratch scratch_;

  Trace trace_;
};

}  // namespace interop::hdl
