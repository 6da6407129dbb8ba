#pragma once
// Schematic persistence: an EDIF-flavoured s-expression file format.
//
// §6 classifies every tool data port by its persistence format; this is the
// workbench's own. The writer emits deterministic s-expressions into one
// string sized before it is filled, formatting numbers with std::to_chars
// so no locale changes the text. The reader pulls tokens from the a/L
// lexer (one lexer, two uses: al::read_all builds value trees from the
// same tokens) straight into the Design, with no value tree in between.
// The format is exactly as expressive as the object model and round-trips
// losslessly.

#include <string>

#include "base/diagnostics.hpp"
#include "schematic/model.hpp"

namespace interop::sch {

/// Serialize a whole design (grid, symbols, schematics) to text.
std::string write_design(const Design& design);

/// Parse a design written by write_design(). Throws std::runtime_error on
/// malformed input: al::AlError for a syntax error, which wins over any
/// structure error wherever it is in the text. Recoverable oddities
/// (unknown fields) are warned through `diags` unless there is a syntax
/// error.
Design read_design(const std::string& text, base::DiagnosticEngine& diags);

}  // namespace interop::sch
