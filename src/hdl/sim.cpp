#include "hdl/sim.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace interop::hdl {

std::string to_string(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::SourceOrder: return "source-order";
    case SchedulerPolicy::ReverseOrder: return "reverse-order";
    case SchedulerPolicy::Seeded: return "seeded";
  }
  return "?";
}

namespace detail {

void DenseReadySet::reset(std::size_t universe) {
  words_.assign((universe + 63) / 64, 0);
  count_ = 0;
}

void DenseReadySet::insert(std::uint32_t id) {
  std::uint64_t& w = words_[id >> 6];
  const std::uint64_t bit = 1ULL << (id & 63);
  if (!(w & bit)) {
    w |= bit;
    ++count_;
  }
}

void DenseReadySet::erase(std::uint32_t id) {
  std::uint64_t& w = words_[id >> 6];
  const std::uint64_t bit = 1ULL << (id & 63);
  if (w & bit) {
    w &= ~bit;
    --count_;
  }
}

std::uint32_t DenseReadySet::first() const {
  for (std::size_t i = 0; i < words_.size(); ++i)
    if (words_[i])
      return std::uint32_t(i * 64 + std::size_t(std::countr_zero(words_[i])));
  return 0;
}

std::uint32_t DenseReadySet::last() const {
  for (std::size_t i = words_.size(); i-- > 0;)
    if (words_[i])
      return std::uint32_t(i * 64 + 63 -
                           std::size_t(std::countl_zero(words_[i])));
  return 0;
}

std::uint32_t DenseReadySet::nth(std::size_t n) const {
  for (std::size_t i = 0; i < words_.size(); ++i) {
    std::uint64_t w = words_[i];
    const std::size_t pc = std::size_t(std::popcount(w));
    if (n >= pc) {
      n -= pc;
      continue;
    }
    while (n--) w &= w - 1;  // drop the n lowest set bits
    return std::uint32_t(i * 64 + std::size_t(std::countr_zero(w)));
  }
  return 0;
}

}  // namespace detail

namespace {

/// Heap comparator: smallest (time, seq) at the front.
struct MinFirst {
  template <class T>
  bool operator()(const T& a, const T& b) const {
    return b < a;
  }
};

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Reduce a vector value to one scalar (any 1 -> 1; all 0 -> 0; else X).
Logic scalarize(const std::vector<Logic>& bits) {
  bool any_x = false;
  for (Logic b : bits) {
    if (b == Logic::L1) return Logic::L1;
    if (b != Logic::L0) any_x = true;
  }
  return any_x ? Logic::X : Logic::L0;
}

bool all_known(const std::vector<Logic>& bits) {
  return std::all_of(bits.begin(), bits.end(), is_known);
}

std::int64_t to_number(const std::vector<Logic>& bits) {
  std::int64_t v = 0;
  for (Logic b : bits) v = (v << 1) | (b == Logic::L1 ? 1 : 0);
  return v;
}

void from_number_into(std::int64_t v, std::size_t width,
                      std::vector<Logic>& out) {
  out.resize(width);
  for (std::size_t i = 0; i < width; ++i)
    out[width - 1 - i] = logic_of((v >> i) & 1);
}

/// Zero-extend (msb-first) on the left to `width`, or truncate to the low
/// `width` bits — in place, no allocation in steady state.
void extend_in_place(std::vector<Logic>& v, std::size_t width) {
  if (v.size() >= width) {
    v.erase(v.begin(), v.begin() + std::ptrdiff_t(v.size() - width));
  } else {
    v.insert(v.begin(), width - v.size(), Logic::L0);
  }
}

/// Equivalent of `extend(match, sel.size()) == sel` without materializing
/// the extended vector.
bool match_equal(const std::vector<Logic>& match,
                 const std::vector<Logic>& sel) {
  const std::size_t w = sel.size();
  if (match.size() >= w)
    return std::equal(match.end() - std::ptrdiff_t(w), match.end(),
                      sel.begin());
  const std::size_t pad = w - match.size();
  for (std::size_t i = 0; i < pad; ++i)
    if (sel[i] != Logic::L0) return false;
  return std::equal(match.begin(), match.end(),
                    sel.begin() + std::ptrdiff_t(pad));
}

}  // namespace

Simulation::Simulation(const ElabDesign& design, SchedulerPolicy policy,
                       std::uint64_t seed)
    : design_(design),
      policy_(policy),
      rng_state_(seed ^ 0xa5a5a5a5a5a5a5a5ULL),
      values_(design.signal_count(), Logic::X),
      fanout_(design.signal_count()),
      watched_(design.signal_count(), 0),
      changed_stamp_(design.signal_count(), 0),
      changed_old_(design.signal_count(), Logic::X) {
  ready_.reset(design_.gates.size() + design_.assigns.size() +
               design_.always_procs.size());
  // Process id space: [gates][assigns][always].
  ProcId pid = 0;
  for (const GateProcess& g : design_.gates) {
    for (SignalId in : g.inputs) fanout_[in].push_back({pid, EdgeKind::Any});
    schedule_process(pid);
    ++pid;
  }
  for (const AssignProcess& a : design_.assigns) {
    std::vector<SignalId> reads;
    std::function<void(const RExpr&)> collect = [&](const RExpr& e) {
      for (SignalId sid : e.bits) reads.push_back(sid);
      for (const RExprPtr& op : e.operands) collect(*op);
    };
    collect(*a.rhs);
    std::sort(reads.begin(), reads.end());
    reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
    for (SignalId sid : reads) fanout_[sid].push_back({pid, EdgeKind::Any});
    schedule_process(pid);
    ++pid;
  }
  for (const AlwaysProcess& a : design_.always_procs) {
    for (const RSensItem& item : a.sensitivity)
      fanout_[item.signal].push_back({pid, item.edge});
    ++pid;
  }
  // Initial threads.
  for (const InitialProcess& ip : design_.initial_procs) {
    Thread t;
    t.stack.push_back({ip.body.get(), 0});
    threads_.push_back(std::move(t));
    schedule_wakeup(0, threads_.size() - 1);
  }
}

Logic Simulation::value(const std::string& bit_name) const {
  return values_[design_.signal(bit_name)];
}

void Simulation::force(SignalId id, Logic v) { apply_update(id, v); }

void Simulation::watch_all() {
  std::fill(watched_.begin(), watched_.end(), std::uint8_t(1));
}

void Simulation::schedule_wakeup(std::int64_t time,
                                 std::size_t thread_index) {
  thread_wakeups_.push_back({time, wake_seq_++, thread_index});
  std::push_heap(thread_wakeups_.begin(), thread_wakeups_.end(), MinFirst{});
}

void Simulation::wake_fanout(SignalId sig, Logic old_value, Logic new_value) {
  for (const Waiter& w : fanout_[sig]) {
    bool fire = false;
    switch (w.edge) {
      case EdgeKind::Any:
        fire = true;
        break;
      case EdgeKind::Pos:
        fire = old_value != Logic::L1 && new_value == Logic::L1;
        break;
      case EdgeKind::Neg:
        fire = old_value != Logic::L0 && new_value == Logic::L0;
        break;
    }
    if (fire) schedule_process(w.proc);
  }
}

void Simulation::apply_update(SignalId sig, Logic v) {
  Logic old = values_[sig];
  if (old == v) return;
  values_[sig] = v;
  if (changed_stamp_[sig] != step_epoch_) {  // remember step-start value
    changed_stamp_[sig] = step_epoch_;
    changed_old_[sig] = old;
    changed_list_.push_back(sig);
  }
  wake_fanout(sig, old, v);
}

void Simulation::post_update(SignalId sig, Logic v, std::int64_t delay) {
  if (delay <= 0) {
    apply_update(sig, v);
    return;
  }
  future_.push_back({now_ + delay, seq_++, sig, v});
  std::push_heap(future_.begin(), future_.end(), MinFirst{});
}

Simulation::ProcId Simulation::next_ready() {
  assert(!ready_.empty());
  switch (policy_) {
    case SchedulerPolicy::SourceOrder:
      return ready_.first();
    case SchedulerPolicy::ReverseOrder:
      return ready_.last();
    case SchedulerPolicy::Seeded:
      return ready_.nth(splitmix(rng_state_) % ready_.size());
  }
  return ready_.first();
}

void Simulation::run_process(ProcId p) {
  std::size_t n_gates = design_.gates.size();
  std::size_t n_assigns = design_.assigns.size();
  if (p < n_gates) {
    run_gate(design_.gates[p]);
  } else if (p < n_gates + n_assigns) {
    run_assign(design_.assigns[p - n_gates]);
  } else {
    run_always(design_.always_procs[p - n_gates - n_assigns]);
  }
}

void Simulation::run_gate(const GateProcess& g) {
  Logic v = Logic::X;
  switch (g.kind) {
    case GateKind::And:
    case GateKind::Nand: {
      v = Logic::L1;
      for (SignalId in : g.inputs) v = logic_and(v, values_[in]);
      if (g.kind == GateKind::Nand) v = logic_not(v);
      break;
    }
    case GateKind::Or:
    case GateKind::Nor: {
      v = Logic::L0;
      for (SignalId in : g.inputs) v = logic_or(v, values_[in]);
      if (g.kind == GateKind::Nor) v = logic_not(v);
      break;
    }
    case GateKind::Xor: {
      v = Logic::L0;
      for (SignalId in : g.inputs) v = logic_xor(v, values_[in]);
      break;
    }
    case GateKind::Not:
      v = logic_not(values_[g.inputs.front()]);
      break;
    case GateKind::Buf:
      v = values_[g.inputs.front()];
      if (v == Logic::Z) v = Logic::X;
      break;
  }
  post_update(g.output, v, g.delay);
}

void Simulation::run_assign(const AssignProcess& a) {
  std::vector<Logic>& rhs = scratch_.acquire();
  eval_into(*a.rhs, rhs);
  extend_in_place(rhs, a.lhs.size());
  for (std::size_t i = 0; i < a.lhs.size(); ++i)
    post_update(a.lhs[i], rhs[i], a.delay);
  scratch_.release();
}

void Simulation::run_always(const AlwaysProcess& a) {
  exec_stmt_run_to_completion(*a.body);
}

void Simulation::exec_stmt_run_to_completion(const RStmt& s) {
  switch (s.kind) {
    case Stmt::Kind::Block:
      for (const RStmtPtr& child : s.body)
        exec_stmt_run_to_completion(*child);
      break;
    case Stmt::Kind::Assign: {
      std::vector<Logic>& rhs = scratch_.acquire();
      eval_into(*s.rhs, rhs);
      extend_in_place(rhs, s.lhs.size());
      if (s.nonblocking) {
        for (std::size_t i = 0; i < s.lhs.size(); ++i)
          nba_queue_.emplace_back(s.lhs[i], rhs[i]);
      } else {
        for (std::size_t i = 0; i < s.lhs.size(); ++i)
          apply_update(s.lhs[i], rhs[i]);
      }
      scratch_.release();
      break;
    }
    case Stmt::Kind::If: {
      Logic c = eval_scalar(*s.condition);
      if (c == Logic::L1) {
        exec_stmt_run_to_completion(*s.then_branch);
      } else if (s.else_branch) {
        exec_stmt_run_to_completion(*s.else_branch);
      }
      break;
    }
    case Stmt::Kind::Case: {
      std::vector<Logic>& sel = scratch_.acquire();
      eval_into(*s.condition, sel);
      const RStmt::CaseArm* chosen = nullptr;
      const RStmt::CaseArm* dflt = nullptr;
      for (const RStmt::CaseArm& arm : s.arms) {
        if (arm.match.empty()) {
          dflt = &arm;
          continue;
        }
        if (match_equal(arm.match, sel) && !chosen) chosen = &arm;
      }
      if (!chosen) chosen = dflt;
      scratch_.release();
      if (chosen) exec_stmt_run_to_completion(*chosen->stmt);
      break;
    }
    case Stmt::Kind::While: {
      std::uint64_t guard = 0;
      while (eval_scalar(*s.condition) == Logic::L1) {
        for (const RStmtPtr& child : s.body)
          exec_stmt_run_to_completion(*child);
        if (++guard > delta_limit_)
          throw std::runtime_error("while loop exceeded iteration limit");
      }
      break;
    }
    case Stmt::Kind::Delay:
    case Stmt::Kind::Forever:
      throw std::runtime_error(
          "delay/forever reached inside run-to-completion context");
  }
}

bool Simulation::step_thread(Thread& t, std::size_t thread_index) {
  std::uint64_t guard = 0;
  while (!t.stack.empty()) {
    if (++guard > delta_limit_)
      throw std::runtime_error("initial block exceeded step limit");
    Frame& f = t.stack.back();
    switch (f.stmt->kind) {
      case Stmt::Kind::Block: {
        if (f.index < f.stmt->body.size()) {
          const RStmt* child = f.stmt->body[f.index].get();
          ++f.index;
          t.stack.push_back({child, 0});
        } else {
          t.stack.pop_back();
        }
        break;
      }
      case Stmt::Kind::Forever: {
        if (f.stmt->body.empty())
          throw std::runtime_error("empty forever loop");
        if (f.index >= f.stmt->body.size()) f.index = 0;
        const RStmt* child = f.stmt->body[f.index].get();
        ++f.index;
        t.stack.push_back({child, 0});
        break;
      }
      case Stmt::Kind::Assign: {
        std::vector<Logic>& rhs = scratch_.acquire();
        eval_into(*f.stmt->rhs, rhs);
        extend_in_place(rhs, f.stmt->lhs.size());
        if (f.stmt->nonblocking) {
          for (std::size_t i = 0; i < f.stmt->lhs.size(); ++i)
            nba_queue_.emplace_back(f.stmt->lhs[i], rhs[i]);
        } else {
          for (std::size_t i = 0; i < f.stmt->lhs.size(); ++i)
            apply_update(f.stmt->lhs[i], rhs[i]);
        }
        scratch_.release();
        t.stack.pop_back();
        break;
      }
      case Stmt::Kind::If: {
        const RStmt* branch = nullptr;
        if (eval_scalar(*f.stmt->condition) == Logic::L1)
          branch = f.stmt->then_branch.get();
        else if (f.stmt->else_branch)
          branch = f.stmt->else_branch.get();
        t.stack.pop_back();
        if (branch) t.stack.push_back({branch, 0});
        break;
      }
      case Stmt::Kind::Case: {
        std::vector<Logic>& sel = scratch_.acquire();
        eval_into(*f.stmt->condition, sel);
        const RStmt::CaseArm* chosen = nullptr;
        const RStmt::CaseArm* dflt = nullptr;
        for (const RStmt::CaseArm& arm : f.stmt->arms) {
          if (arm.match.empty()) {
            dflt = &arm;
            continue;
          }
          if (match_equal(arm.match, sel) && !chosen) chosen = &arm;
        }
        if (!chosen) chosen = dflt;
        scratch_.release();
        t.stack.pop_back();
        if (chosen) t.stack.push_back({chosen->stmt.get(), 0});
        break;
      }
      case Stmt::Kind::While: {
        if (eval_scalar(*f.stmt->condition) == Logic::L1) {
          if (f.stmt->body.empty())
            throw std::runtime_error("empty while loop");
          t.stack.push_back({f.stmt->body.front().get(), 0});
        } else {
          t.stack.pop_back();
        }
        break;
      }
      case Stmt::Kind::Delay: {
        if (f.index == 0) {
          f.index = 1;
          schedule_wakeup(now_ + f.stmt->delay, thread_index);
          return true;  // suspended
        }
        // resumed after the delay: run the guarded statement (if any)
        if (f.index == 1 && !f.stmt->body.empty()) {
          f.index = 2;
          t.stack.push_back({f.stmt->body.front().get(), 0});
        } else {
          t.stack.pop_back();
        }
        break;
      }
    }
  }
  t.done = true;
  return false;
}

void Simulation::resume_thread(std::size_t thread_index) {
  Thread& t = threads_[thread_index];
  if (t.done) return;
  step_thread(t, thread_index);
}

void Simulation::settle_timestep() {
  std::uint64_t local_deltas = 0;
  while (true) {
    if (!ready_.empty()) {
      if (++local_deltas > delta_limit_)
        throw std::runtime_error("delta cycle limit exceeded (oscillation?)");
      ++deltas_;
      ProcId p = next_ready();
      ready_.erase(p);
      run_process(p);
      continue;
    }
    if (!nba_queue_.empty()) {
      // apply_update never appends NBAs, so draining via a reused scratch
      // buffer is safe and allocation-free.
      nba_scratch_.clear();
      nba_scratch_.swap(nba_queue_);
      for (const auto& [sig, v] : nba_scratch_) apply_update(sig, v);
      continue;
    }
    break;
  }
}

std::int64_t Simulation::run(std::int64_t until) {
  // Tracing aggregates locally and emits one counter sample per timestep,
  // so a disarmed run pays one atomic load per timestep, not per event.
  obs::Span span("hdl", [until] {
    return std::pair{"sim.run", "\"until\":" + std::to_string(until)};
  });
  std::uint64_t timesteps = 0;
  std::uint64_t wakeups_total = 0;
  std::uint64_t deltas_at_entry = deltas_;
  while (true) {
    std::uint64_t deltas_before = deltas_;
    // Wake threads due now (policy decides the order among simultaneous
    // thread wake-ups, the same way it orders processes).
    due_scratch_.clear();
    while (!thread_wakeups_.empty() && thread_wakeups_.front().time <= now_) {
      due_scratch_.push_back(thread_wakeups_.front().thread);
      std::pop_heap(thread_wakeups_.begin(), thread_wakeups_.end(),
                    MinFirst{});
      thread_wakeups_.pop_back();
    }
    if (policy_ == SchedulerPolicy::ReverseOrder)
      std::reverse(due_scratch_.begin(), due_scratch_.end());
    for (std::size_t ti : due_scratch_) {
      resume_thread(ti);
      settle_timestep();
    }
    settle_timestep();

    // End-of-timestep trace snapshot (ascending signal id, like the
    // reference kernel's std::map iteration).
    std::sort(changed_list_.begin(), changed_list_.end());
    for (SignalId sig : changed_list_) {
      if (values_[sig] != changed_old_[sig] && watched_[sig])
        trace_.push_back({now_, sig, values_[sig]});
    }
    changed_list_.clear();
    ++step_epoch_;
    if (!now_counted_) {
      ++timesteps;
      now_counted_ = true;
    }
    wakeups_total += due_scratch_.size();
    if (obs::armed()) {
      obs::counter("hdl", "sim.deltas_per_step",
                   std::int64_t(deltas_ - deltas_before));
      obs::counter("hdl", "sim.wakeups_per_step",
                   std::int64_t(due_scratch_.size()));
    }

    // Advance time.
    std::int64_t next = -1;
    if (!future_.empty()) next = future_.front().time;
    if (!thread_wakeups_.empty()) {
      std::int64_t tw = thread_wakeups_.front().time;
      next = next < 0 ? tw : std::min(next, tw);
    }
    if (next < 0 || next > until) break;
    now_ = next;
    now_counted_ = false;

    // Apply matured scheduled updates.
    while (!future_.empty() && future_.front().time == now_) {
      PendingUpdate u = future_.front();
      std::pop_heap(future_.begin(), future_.end(), MinFirst{});
      future_.pop_back();
      apply_update(u.signal, u.value);
    }
  }
  // Registry handles resolved once per process: a lookup takes the
  // registry lock and may allocate the name.
  static obs::MetricCounter& m_timesteps =
      obs::Metrics::global().counter("hdl.sim.timesteps");
  static obs::MetricCounter& m_events =
      obs::Metrics::global().counter("hdl.sim.events");
  static obs::MetricCounter& m_wakeups =
      obs::Metrics::global().counter("hdl.sim.wakeups");
  m_timesteps.add(std::int64_t(timesteps));
  m_events.add(std::int64_t(deltas_ - deltas_at_entry));
  m_wakeups.add(std::int64_t(wakeups_total));
  return now_;
}

Logic Simulation::eval_scalar(const RExpr& e) const {
  std::vector<Logic>& tmp = scratch_.acquire();
  eval_into(e, tmp);
  Logic r = scalarize(tmp);
  scratch_.release();
  return r;
}

void Simulation::eval_into(const RExpr& e, std::vector<Logic>& out) const {
  switch (e.kind) {
    case Expr::Kind::Literal:
      out.assign(e.literal.begin(), e.literal.end());
      return;
    case Expr::Kind::Ref:
    case Expr::Kind::Select: {
      out.clear();
      out.reserve(e.bits.size());
      for (SignalId sid : e.bits) out.push_back(values_[sid]);
      return;
    }
    case Expr::Kind::Unary: {
      std::vector<Logic>& a = scratch_.acquire();
      eval_into(*e.operands[0], a);
      switch (e.un_op) {
        case UnOp::Not:
          out.assign(1, logic_not(scalarize(a)));
          break;
        case UnOp::BitNot:
          out.assign(a.begin(), a.end());
          for (Logic& b : out) b = logic_not(b);
          break;
        case UnOp::RedAnd: {
          Logic acc = Logic::L1;
          for (Logic b : a) acc = logic_and(acc, b);
          out.assign(1, acc);
          break;
        }
        case UnOp::RedOr: {
          Logic acc = Logic::L0;
          for (Logic b : a) acc = logic_or(acc, b);
          out.assign(1, acc);
          break;
        }
        case UnOp::Neg: {
          if (!all_known(a))
            out.assign(a.size(), Logic::X);
          else
            from_number_into(-to_number(a), a.size(), out);
          break;
        }
      }
      scratch_.release();
      return;
    }
    case Expr::Kind::Binary: {
      std::vector<Logic>& a = scratch_.acquire();
      std::vector<Logic>& b = scratch_.acquire();
      eval_into(*e.operands[0], a);
      eval_into(*e.operands[1], b);
      const std::size_t w = std::max(a.size(), b.size());
      switch (e.bin_op) {
        case BinOp::And:
        case BinOp::Or:
        case BinOp::Xor: {
          extend_in_place(a, w);
          extend_in_place(b, w);
          out.resize(w);
          for (std::size_t i = 0; i < w; ++i) {
            out[i] = e.bin_op == BinOp::And   ? logic_and(a[i], b[i])
                     : e.bin_op == BinOp::Or  ? logic_or(a[i], b[i])
                                              : logic_xor(a[i], b[i]);
          }
          break;
        }
        case BinOp::LAnd:
          out.assign(1, logic_and(scalarize(a), scalarize(b)));
          break;
        case BinOp::LOr:
          out.assign(1, logic_or(scalarize(a), scalarize(b)));
          break;
        case BinOp::Eq:
        case BinOp::Ne: {
          extend_in_place(a, w);
          extend_in_place(b, w);
          if (!all_known(a) || !all_known(b)) {
            out.assign(1, Logic::X);
            break;
          }
          bool eq = a == b;
          out.assign(1, logic_of(e.bin_op == BinOp::Eq ? eq : !eq));
          break;
        }
        case BinOp::Lt:
        case BinOp::Le:
        case BinOp::Gt:
        case BinOp::Ge: {
          if (!all_known(a) || !all_known(b)) {
            out.assign(1, Logic::X);
            break;
          }
          std::int64_t x = to_number(a), y = to_number(b);
          bool r = e.bin_op == BinOp::Lt   ? x < y
                   : e.bin_op == BinOp::Le ? x <= y
                   : e.bin_op == BinOp::Gt ? x > y
                                           : x >= y;
          out.assign(1, logic_of(r));
          break;
        }
        case BinOp::Add:
        case BinOp::Sub: {
          if (!all_known(a) || !all_known(b)) {
            out.assign(w, Logic::X);
            break;
          }
          std::int64_t x = to_number(a), y = to_number(b);
          from_number_into(e.bin_op == BinOp::Add ? x + y : x - y, w, out);
          break;
        }
      }
      scratch_.release();
      scratch_.release();
      return;
    }
    case Expr::Kind::Cond: {
      Logic sel = eval_scalar(*e.operands[0]);
      std::vector<Logic>& a = scratch_.acquire();
      std::vector<Logic>& b = scratch_.acquire();
      eval_into(*e.operands[1], a);
      eval_into(*e.operands[2], b);
      const std::size_t w = std::max(a.size(), b.size());
      extend_in_place(a, w);
      extend_in_place(b, w);
      out.resize(w);
      for (std::size_t i = 0; i < w; ++i) out[i] = logic_mux(sel, a[i], b[i]);
      scratch_.release();
      scratch_.release();
      return;
    }
    case Expr::Kind::Concat:
      break;
  }
  out.assign(1, Logic::X);
}

}  // namespace interop::hdl
