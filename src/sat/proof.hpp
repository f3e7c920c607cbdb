// DRAT-style proof logging for the CDCL solver.
//
// A FileProofTracer is the sink the Solver writes clause events into:
//  * original(c)  -- a problem clause as handed to add_clause (an axiom);
//  * derive(c)    -- a clause the solver claims is implied by everything
//                    logged before it (learned clauses, root-simplified
//                    units, failed-assumption cores, and the final empty
//                    clause of a refutation);
//  * erase(c)     -- a clause removed from the database (DB reduction).
//
// Because the solver is incremental, one trace interleaves original and
// derived clauses chronologically; a checker replays the stream in order,
// so clauses added between solve() calls are in scope exactly from the
// point they appeared. Every derived clause is expected to be RUP
// (reverse-unit-propagation) with respect to the live clause set at its
// position in the stream -- the property drat_check.hpp verifies. A trace
// whose last derivation is the empty clause is a closed refutation: a
// machine-checkable certificate that the logged axioms are UNSAT.
//
// The tracer streams the events to disk in the compact binary encoding
// below with bounded buffering, so certified solves on million-gate
// miters never hold the proof in RAM. TraceReader replays a published
// certificate step by step, which is what the streaming checker in
// drat_check.hpp consumes.
//
// The solver holds a plain `FileProofTracer*` that is nullptr by default;
// all emission sites are off the propagation hot path, so disabled tracing
// costs nothing (see docs/ARCHITECTURE.md, "Certified verdicts").
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sat/types.hpp"

namespace ril::sat {

enum class ProofStepKind : std::uint8_t {
  kOriginal,  ///< axiom ('o' record)
  kDerive,    ///< claimed-RUP addition ('a' record)
  kErase,     ///< deletion ('d' record)
};

struct ProofStep {
  ProofStepKind kind;
  Clause lits;
};

/// Disk-backed proof sink: appends steps to `path() + ".tmp"` in the
/// binary format below, flushing an internal buffer in bounded chunks so
/// memory stays O(buffer) no matter how long the refutation runs.
///
/// The final file only ever appears atomically: finalize() writes the end
/// marker, fsyncs, and renames the temp over `path()` (finalize_to()
/// renames elsewhere -- how a portfolio promotes its winning member's
/// trace). A tracer destroyed without finalize() unlinks its temp, so a
/// killed process never leaves a partial trace under the published name.
class FileProofTracer {
 public:
  /// Opens `path + ".tmp"` for writing (truncating any stale temp).
  /// Throws std::runtime_error if the temp cannot be created.
  explicit FileProofTracer(std::string path,
                           std::size_t buffer_bytes = 1 << 20);
  ~FileProofTracer();

  FileProofTracer(const FileProofTracer&) = delete;
  FileProofTracer& operator=(const FileProofTracer&) = delete;

  void original(const Clause& lits) { append_step('o', lits); }
  void derive(const Clause& lits) {
    closed_ = closed_ || lits.empty();
    append_step('a', lits);
  }
  void erase(const Clause& lits) { append_step('d', lits); }
  /// Appends a step recorded elsewhere (the preprocessor's replay steps).
  void append(const ProofStep& step);

  std::uint64_t steps() const { return steps_; }
  /// Bytes of encoded trace so far (header + steps, buffered included).
  std::uint64_t bytes_written() const { return bytes_; }
  /// True once the empty clause has been derived.
  bool closed() const { return closed_; }
  const std::string& path() const { return path_; }
  bool finalized() const { return fd_ < 0 && finalized_; }

  /// Seals the trace (end marker), flushes, fsyncs, and atomically
  /// renames the temp to path(). Idempotent; throws on I/O failure.
  void finalize() { finalize_to(path_); }
  /// Same, but publishes under `final_path` instead of path().
  void finalize_to(const std::string& final_path);
  /// Closes and deletes the temp without publishing anything. Idempotent.
  void abandon();

 private:
  void append_step(char tag, const Clause& lits);
  void flush_buffer();
  void write_raw(const char* data, std::size_t n);

  std::string path_;
  std::string temp_path_;
  int fd_ = -1;
  bool finalized_ = false;
  std::vector<char> buffer_;
  std::size_t buffer_limit_;
  std::uint64_t steps_ = 0;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

/// Streaming reader over an on-disk binary trace. next() yields one step
/// at a time in file order with O(1) memory, throwing std::runtime_error
/// with the byte offset on malformed input. A non-empty file must start
/// with the magic header and carry its 'e' end marker; hitting EOF
/// without one means the trace was truncated and next() throws, and so
/// does a literal whose variable index is not below the file's byte count
/// (genuine certificates number their variables densely). A zero-byte
/// file reads as a clean empty trace (the caller decides whether "empty"
/// is an error).
class TraceReader {
 public:
  /// Throws std::runtime_error if the file cannot be opened.
  explicit TraceReader(const std::string& path);
  ~TraceReader();

  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  /// Fills `step` with the next step and returns true, or returns false
  /// at a well-terminated end of trace. Throws on malformed input.
  bool next(ProofStep& step);

 private:
  bool refill();
  bool read_byte(int& out);
  void read_varint(std::uint64_t& value);
  [[noreturn]] void fail_at(const std::string& what) const;

  std::string path_;
  std::unique_ptr<std::ifstream> in_;
  bool done_ = false;
  std::uint64_t steps_read_ = 0;
  std::uint64_t max_lit_code_ = 0x7fffffff;
  std::vector<char> buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  std::uint64_t byte_offset_ = 0;
};

// --- binary encoding -------------------------------------------------------
// Layout: 6-byte magic {0x8F,'D','R','A','T',0x01}, then records:
//   'o'|'a'|'d'  varint(lit.code+2)*  0x00        one step
//   'e'          varint(step-count)               end marker (required)
// Varints are LSB-first 7-bit groups with the high bit as continuation.
// Literal codes are offset by 2 so the 0x00 clause terminator can never
// collide with an encoded literal (mirroring the binary-DRAT convention
// of mapping DIMACS lit v to 2|v|+sign).

}  // namespace ril::sat
