/// Seeded mutation fuzzing of the elastic checkpoint decoder
/// (elastic::decode). The corpus is real v2 checkpoints captured mid-run:
/// Block Jacobi on plain bulk-synchronous delivery, Distributed Southwell
/// on an async runtime with messages in flight, and Parallel Southwell with
/// node-routed traffic. Each case applies one or two mutations — bit flips,
/// byte and word overwrites with boundary values, truncations, word
/// insertions, deletions and duplications — and usually re-seals the
/// header's payload length and checksum, so the mutation reaches the
/// payload parser instead of stopping at the checksum. Every input must
/// either decode or throw util::CheckError, never crash (the ASan CI job
/// runs this), and an input that decodes must re-encode to itself byte for
/// byte.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "dist/driver.hpp"
#include "dist/harness.hpp"
#include "elastic/checkpoint.hpp"
#include "graph/partition.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth {
namespace {

using sparse::index_t;
using sparse::value_t;
using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kHeaderBytes = 9 * 8;

/// One checkpoint of `method` over a small Poisson problem on 4 ranks,
/// captured after `steps` parallel steps under `opt`.
elastic::Checkpoint capture(dist::DistMethod method,
                            const dist::DistRunOptions& opt, int steps) {
  const sparse::CsrMatrix a =
      sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(8, 8)).a;
  std::vector<value_t> b(static_cast<std::size_t>(a.rows()), 0.0);
  std::vector<value_t> x0(b.size());
  util::Rng rng(5);
  rng.fill_uniform(x0, -1.0, 1.0);
  sparse::normalize_initial_residual(a, b, x0);
  const graph::Partition part = graph::partition_recursive_bisection(
      graph::Graph::from_matrix_structure(a), 4);
  const dist::DistLayout layout(a, part);
  dist::RunHarness h(method, layout, b, x0, opt);
  for (int k = 0; k < steps; ++k) h.solver().step();
  elastic::Checkpoint c;
  c.num_ranks = h.runtime().num_ranks();
  c.method = static_cast<int>(method);
  c.epoch = h.runtime().epochs_completed();
  c.step = steps;
  c.runtime = h.runtime().capture_state();
  c.solver = h.solver().capture_state();
  return c;
}

struct Seed {
  std::string name;
  Bytes bytes;
};

std::vector<Seed> corpus() {
  std::vector<Seed> seeds;
  dist::DistRunOptions plain;
  seeds.push_back(
      {"bj_plain",
       elastic::encode(capture(dist::DistMethod::kBlockJacobi, plain, 3))});

  dist::DistRunOptions async;
  async.async = true;
  const elastic::Checkpoint ds =
      capture(dist::DistMethod::kDistributedSouthwell, async, 4);
  // The point of this seed: in-flight messages ride the checkpoint.
  EXPECT_GT(ds.runtime.deferred.size(), 0u);
  seeds.push_back({"ds_async", elastic::encode(ds)});

  dist::DistRunOptions routed;
  routed.ranks_per_node = 2;
  seeds.push_back(
      {"ps_node_routed",
       elastic::encode(
           capture(dist::DistMethod::kParallelSouthwell, routed, 3))});
  return seeds;
}

std::uint64_t read_word(const Bytes& b, std::size_t word) {
  std::uint64_t w = 0;
  for (int i = 0; i < 8; ++i) {
    w |= static_cast<std::uint64_t>(b[8 * word + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return w;
}

void write_word(Bytes& b, std::size_t word, std::uint64_t w) {
  for (int i = 0; i < 8; ++i) {
    b[8 * word + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(w >> (8 * i));
  }
}

/// Make a mutated buffer's header agree with its payload again: the
/// payload word count, and the FNV-1a 64 checksum over the payload bytes
/// (the codec's checksum, restated here from its definition).
void reseal(Bytes& b) {
  if (b.size() % 8 != 0 || b.size() < kHeaderBytes) return;
  write_word(b, 2, b.size() / 8 - 9);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = kHeaderBytes; i < b.size(); ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  write_word(b, 3, h);
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::size_t below(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_() % n);
  }

  /// A value that matters to a length prefix, a rank id, a tag or a
  /// header field, or else a random word.
  std::uint64_t boundary_value(std::uint64_t old) {
    switch (below(10)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return 3;  // kNumTags
      case 3: return 4;  // the corpus' rank count
      case 4: return old + 1;
      case 5: return old - 1;
      case 6: return std::uint64_t{1} << 31;
      case 7: return std::uint64_t{1} << 63;
      case 8: return std::numeric_limits<std::uint64_t>::max();
      default: return rng_();
    }
  }

  /// One mutation of `b`, picked at random. Word-level cases act on the
  /// payload words (the header is mutated by the byte-level cases).
  void mutate(Bytes& b) {
    const std::size_t words = b.size() / 8;
    const bool has_payload = b.size() % 8 == 0 && words > 9;
    switch (has_payload ? below(8) : below(3)) {
      case 0: {  // bit flips anywhere
        const std::size_t flips = 1 + below(3);
        for (std::size_t i = 0; i < flips && !b.empty(); ++i) {
          b[below(b.size())] ^= static_cast<std::uint8_t>(1u << below(8));
        }
        break;
      }
      case 1:  // a random byte anywhere
        if (!b.empty()) b[below(b.size())] = static_cast<std::uint8_t>(rng_());
        break;
      case 2:  // truncation, ragged or not
        b.resize(below(b.size() + 1));
        break;
      case 3:  // truncation at a word boundary inside the payload
        b.resize(8 * (9 + below(words - 9)));
        break;
      case 4: {  // one payload word set to a boundary value
        const std::size_t w = 9 + below(words - 9);
        write_word(b, w, boundary_value(read_word(b, w)));
        break;
      }
      case 5: {  // a payload word inserted
        const std::size_t at = 8 * (9 + below(words - 8));
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(at), 8, 0);
        write_word(b, at / 8, boundary_value(0));
        break;
      }
      case 6: {  // a run of payload words deleted
        const std::size_t at = 9 + below(words - 9);
        const std::size_t n = 1 + below(std::min<std::size_t>(4, words - at));
        b.erase(b.begin() + static_cast<std::ptrdiff_t>(8 * at),
                b.begin() + static_cast<std::ptrdiff_t>(8 * (at + n)));
        break;
      }
      default: {  // a run of payload words duplicated in place
        const std::size_t at = 9 + below(words - 9);
        const std::size_t n = 1 + below(std::min<std::size_t>(8, words - at));
        const Bytes run(b.begin() + static_cast<std::ptrdiff_t>(8 * at),
                        b.begin() + static_cast<std::ptrdiff_t>(8 * (at + n)));
        b.insert(b.begin() + static_cast<std::ptrdiff_t>(8 * at), run.begin(),
                 run.end());
      }
    }
  }

 private:
  std::mt19937_64 rng_;
};

enum class Outcome { kDecoded, kRejected };

/// Decode `b`: a CheckError is a rejection; anything else thrown fails the
/// test; a decoded checkpoint must re-encode to exactly `b`.
Outcome decode_or_reject(const Bytes& b, const std::string& what) {
  elastic::Checkpoint c;
  try {
    c = elastic::decode(b);
  } catch (const util::CheckError&) {
    return Outcome::kRejected;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": decode threw a non-CheckError: " << e.what();
    return Outcome::kRejected;
  }
  EXPECT_EQ(elastic::encode(c), b) << what << ": decoded but no round trip";
  return Outcome::kDecoded;
}

TEST(CheckpointFuzz, SeedsDecodeAndRoundTrip) {
  for (const Seed& s : corpus()) {
    EXPECT_EQ(decode_or_reject(s.bytes, s.name), Outcome::kDecoded) << s.name;
    EXPECT_EQ(read_word(s.bytes, 1), elastic::kCheckpointVersion);
  }
}

TEST(CheckpointFuzz, SeededMutationsDecodeOrThrowCheckError) {
  const std::vector<Seed> seeds = corpus();
  Mutator mut(20261022);
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (int c = 0; c < 6000; ++c) {
    const Seed& seed = seeds[static_cast<std::size_t>(c) % seeds.size()];
    Bytes b = seed.bytes;
    const std::size_t rounds = 1 + mut.below(2);
    for (std::size_t r = 0; r < rounds; ++r) mut.mutate(b);
    // Mostly re-sealed, so the payload parser sees the mutation; the rest
    // exercise the header, length and checksum checks.
    if (mut.below(4) != 0) reseal(b);
    const std::string what = seed.name + " case " + std::to_string(c);
    if (decode_or_reject(b, what) == Outcome::kDecoded) {
      ++decoded;
    } else {
      ++rejected;
    }
    if (::testing::Test::HasFailure()) break;
  }
  // Both outcomes must be common, or the property proves little.
  EXPECT_GT(decoded, 600u);
  EXPECT_GT(rejected, 600u);
}

}  // namespace
}  // namespace dsouth
