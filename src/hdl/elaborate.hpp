#pragma once
// Elaboration: expand the module hierarchy of a SourceUnit into a flat,
// bit-level network of signals and processes ready for simulation.
//
// Hierarchical names are preserved ("u1.u2.q[3]") — the §3.3 "hierarchy
// removal" discussion is about exactly these derived names, and the naming
// library consumes them.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hdl/ast.hpp"

namespace interop::hdl {

using SignalId = std::uint32_t;

class ElabError : public std::runtime_error {
 public:
  explicit ElabError(const std::string& what) : std::runtime_error(what) {}
};

/// An expression with names resolved to flat signal ids. Mirrors Expr.
struct RExpr;
using RExprPtr = std::unique_ptr<RExpr>;

struct RExpr {
  Expr::Kind kind = Expr::Kind::Literal;
  std::vector<Logic> literal;        ///< Literal (msb first)
  std::vector<SignalId> bits;        ///< Ref (msb first) / Select (one bit)
  UnOp un_op = UnOp::Not;
  BinOp bin_op = BinOp::And;
  std::vector<RExprPtr> operands;
};

/// A statement with resolved references.
struct RStmt;
using RStmtPtr = std::unique_ptr<RStmt>;

struct RStmt {
  Stmt::Kind kind = Stmt::Kind::Block;
  std::vector<RStmtPtr> body;
  std::vector<SignalId> lhs;         ///< assignment target bits (msb first)
  RExprPtr rhs;
  bool nonblocking = false;
  RExprPtr condition;
  RStmtPtr then_branch;
  RStmtPtr else_branch;
  std::int64_t delay = 0;
  struct CaseArm {
    std::vector<Logic> match;        ///< empty = default
    RStmtPtr stmt;
  };
  std::vector<CaseArm> arms;
};

/// Process kinds the kernel schedules.
struct GateProcess {
  GateKind kind;
  SignalId output = 0;
  std::vector<SignalId> inputs;
  std::int64_t delay = 0;
};

struct AssignProcess {
  std::vector<SignalId> lhs;         ///< msb first
  RExprPtr rhs;
  std::int64_t delay = 0;
};

struct RSensItem {
  SignalId signal;
  EdgeKind edge;
};

struct AlwaysProcess {
  std::vector<RSensItem> sensitivity;
  RStmtPtr body;
};

struct InitialProcess {
  RStmtPtr body;
};

/// The elaborated design.
struct ElabDesign {
  /// id -> hierarchical per-bit name ("top.u1.q[3]" or "top.clk").
  std::vector<std::string> signal_names;
  std::vector<NetKind> signal_kinds;
  std::map<std::string, SignalId> by_name;

  std::vector<GateProcess> gates;
  std::vector<AssignProcess> assigns;
  std::vector<AlwaysProcess> always_procs;
  std::vector<InitialProcess> initial_procs;

  std::size_t signal_count() const { return signal_names.size(); }
  /// Find a signal by hierarchical bit name; throws ElabError when missing.
  SignalId signal(const std::string& name) const;
  /// All bit ids of a (possibly vector) hierarchical net name, msb first.
  std::vector<SignalId> bus(const std::string& name, int msb, int lsb) const;
};

/// Elaborate `top` (a module name in `unit`). Throws ElabError on undefined
/// modules/signals, port mismatches, or delays inside always blocks.
ElabDesign elaborate(const SourceUnit& unit, const std::string& top);

}  // namespace interop::hdl
