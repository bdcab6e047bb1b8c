#pragma once

/// \file checkpoint.hpp
/// Versioned byte-buffer checkpoint codec for elastic restart
/// (docs/resilience.md "Permanent failure and recovery", DESIGN.md §15).
///
/// A checkpoint is the complete deterministic mid-run state of a
/// distributed solve, captured between parallel steps: the runtime's
/// cursors, counters, unconsumed windows, and in-flight deferred messages
/// (simmpi::RuntimeState) plus the solver's iterate, residuals, channel
/// sequence numbers, resilient caches, and private extension stream
/// (dist::DistStationarySolver::SolverState). Because every captured field
/// is bit-identical across execution backends (the fence-merge guarantee),
/// the encoded buffer is too: encoding the same run state on the
/// sequential and thread-pool backends yields byte-identical buffers, and
/// restoring one resumes the run byte-identically on either
/// (tests/test_elastic.cpp).
///
/// Wire format (all integers little-endian u64, all floating-point fields
/// bit-cast to u64 — values round-trip exactly, including NaN payloads):
///
///   header:  magic, version, payload words, checksum,
///            num_ranks, method id, flags, epoch, step
///   payload: RuntimeState fields, then SolverState fields, each
///            length-prefixed where variable-sized.
///
/// The checksum is FNV-1a 64 over the payload words; decode() verifies it,
/// every length prefix and every rank id and tag, so a truncated or
/// bit-flipped buffer fails loudly instead of resuming from garbage, and a
/// buffer that decodes re-encodes to itself byte for byte
/// (tests/test_checkpoint_fuzz.cpp). `method`/`flags` identify the
/// configuration that captured the state — restoring into a different
/// solver class or feature combination is a caller error the elastic
/// driver checks before touching any solver.

#include <cstdint>
#include <span>
#include <vector>

#include "dist/solver_base.hpp"
#include "simmpi/runtime.hpp"

namespace dsouth::elastic {

using sparse::index_t;

/// Current encoder version (decode() rejects anything else; DESIGN.md §15
/// lists what each version holds).
inline constexpr std::uint64_t kCheckpointVersion = 2;

/// Configuration bits carried in the header's `flags` word. They pin the
/// feature combination the state was captured under; restore into a
/// differently-configured stack is refused by the driver.
inline constexpr std::uint64_t kFlagResilience = 1ULL << 0;
inline constexpr std::uint64_t kFlagCoalescing = 1ULL << 1;
inline constexpr std::uint64_t kFlagAsync = 1ULL << 2;
inline constexpr std::uint64_t kFlagNodeTopology = 1ULL << 3;

/// One decoded (or to-be-encoded) checkpoint.
struct Checkpoint {
  int num_ranks = 0;
  int method = 0;           ///< dist::DistMethod as int
  std::uint64_t flags = 0;  ///< kFlag* combination at capture
  std::uint64_t epoch = 0;  ///< Runtime::epochs_completed() at capture
  index_t step = 0;         ///< parallel steps completed at capture

  simmpi::RuntimeState runtime{1};
  dist::DistStationarySolver::SolverState solver;
};

/// Serialize to the versioned byte buffer described above.
std::vector<std::uint8_t> encode(const Checkpoint& c);

/// Parse and verify (magic, version, checksum, every length prefix) a
/// buffer produced by encode(). Malformed input throws util::CheckError
/// and never crashes — a checkpoint is trusted state, not a network input,
/// so corruption means the experiment itself is broken.
Checkpoint decode(std::span<const std::uint8_t> bytes);

}  // namespace dsouth::elastic
