#include "al/bytecode.hpp"

namespace interop::al {

namespace {

const char* op_name(Op op) {
  switch (op) {
    case Op::Const: return "const";
    case Op::Nil: return "nil";
    case Op::True: return "true";
    case Op::False: return "false";
    case Op::Pop: return "pop";
    case Op::LoadName: return "load";
    case Op::StoreName: return "store";
    case Op::DefineName: return "define";
    case Op::Closure: return "closure";
    case Op::Jump: return "jump";
    case Op::JumpIfFalse: return "jump-if-false";
    case Op::JumpIfFalsePeek: return "jump-if-false-peek";
    case Op::JumpIfTruePeek: return "jump-if-true-peek";
    case Op::Call: return "call";
    case Op::Return: return "return";
    case Op::PushScope: return "push-scope";
    case Op::PopScope: return "pop-scope";
    case Op::LoadSlot: return "load-slot";
    case Op::StoreSlot: return "store-slot";
  }
  return "?";
}

void disassemble_into(const Proto& p, std::string& out, int depth) {
  std::string indent(std::size_t(depth) * 2, ' ');
  out += indent + "proto " + p.name + " (";
  for (std::size_t i = 0; i < p.params.size(); ++i) {
    if (i) out += ' ';
    out += p.params[i];
  }
  out += ")";
  if (p.slots) out += " [slots " + std::to_string(p.nslots) + "]";
  out += "\n";
  for (std::size_t i = 0; i < p.code.size(); ++i) {
    const Instr& in = p.code[i];
    out += indent + "  " + std::to_string(i) + ": " + op_name(in.op);
    switch (in.op) {
      case Op::Const:
        out += " " + p.consts[in.arg].write();
        break;
      case Op::LoadName:
      case Op::StoreName:
      case Op::DefineName:
        out += " " + p.names[in.arg];
        break;
      case Op::Closure:
        out += " " + p.protos[in.arg]->name;
        break;
      case Op::Jump:
      case Op::JumpIfFalse:
      case Op::JumpIfFalsePeek:
      case Op::JumpIfTruePeek:
      case Op::Call:
      case Op::LoadSlot:
      case Op::StoreSlot:
        out += " " + std::to_string(in.arg);
        break;
      default:
        break;
    }
    out += '\n';
  }
  for (const auto& child : p.protos) disassemble_into(*child, out, depth + 1);
}

}  // namespace

std::string disassemble(const Proto& proto) {
  std::string out;
  disassemble_into(proto, out, 0);
  return out;
}

}  // namespace interop::al
