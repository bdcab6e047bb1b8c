/// Tests for the wire-format codec (wire/wire.hpp) and the CommPlan /
/// ChannelSet staging layer (wire/comm_plan.hpp): v1 layouts are
/// byte-identical to the legacy ad-hoc encodings, frames round-trip and
/// reject every malformed variant, coalescing preserves solver behavior
/// bit-for-bit, and the pooled encode-in-place hot path performs no heap
/// allocation once warm.

#include "wire/wire.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "dist/driver.hpp"
#include "dist/solver_base.hpp"
#include "simmpi/rank_context.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wire/comm_plan.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter for the zero-allocation hot-path test. Counting
// happens unconditionally (it is two relaxed atomic ops); the test reads the
// counter delta around a window of solver steps.
//
// The replacement pair routes through malloc/free, which is consistent, but
// GCC cannot see that once it inlines the operators into the test bodies
// and warns about new/free mismatches.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align =
      std::max(static_cast<std::size_t>(al), sizeof(void*));
  void* p = nullptr;
  if (::posix_memalign(&p, align, n ? n : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
// The nothrow forms (std::stable_sort's temporary buffer uses them) must
// be replaced too, or their memory comes from the toolchain's allocator
// and is released here by free().
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& nt) noexcept {
  return ::operator new(n, nt);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n, al);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t& nt) noexcept {
  return ::operator new(n, al, nt);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dsouth::wire {
namespace {

using util::CheckError;

// Encode one record with recognizable field values: dx[i] = base + i,
// rb[i] = -(base + i).
std::vector<double> encode(RecordType t, double norm2, double gamma2,
                           std::size_t nb, double base = 10.0) {
  std::vector<double> out(encoded_doubles(t, nb));
  auto rec = begin_record(t, norm2, gamma2, out, nb);
  for (std::size_t i = 0; i < rec.dx.size(); ++i) {
    rec.dx[i] = base + static_cast<double>(i);
  }
  for (std::size_t i = 0; i < rec.rb.size(); ++i) {
    rec.rb[i] = -(base + static_cast<double>(i));
  }
  return out;
}

TEST(Codec, EncodedSizesFollowLayoutV1) {
  for (const std::size_t nb : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    EXPECT_EQ(encoded_doubles(RecordType::kGhostDelta, nb), nb);
    EXPECT_EQ(encoded_doubles(RecordType::kNormUpdate, nb), 2 + nb);
    EXPECT_EQ(encoded_doubles(RecordType::kResidualNorm, nb), 2u);
    EXPECT_EQ(encoded_doubles(RecordType::kSolveUpdate, nb), 3 + 2 * nb);
    EXPECT_EQ(encoded_doubles(RecordType::kCorrection, nb), 3 + nb);
  }
}

TEST(Codec, TagAndFamilyMapping) {
  EXPECT_EQ(tag_of(RecordType::kGhostDelta), simmpi::MsgTag::kSolve);
  EXPECT_EQ(tag_of(RecordType::kNormUpdate), simmpi::MsgTag::kSolve);
  EXPECT_EQ(tag_of(RecordType::kSolveUpdate), simmpi::MsgTag::kSolve);
  EXPECT_EQ(tag_of(RecordType::kResidualNorm), simmpi::MsgTag::kResidual);
  EXPECT_EQ(tag_of(RecordType::kCorrection), simmpi::MsgTag::kResidual);

  EXPECT_EQ(family_of(RecordType::kGhostDelta), Family::kDelta);
  EXPECT_EQ(family_of(RecordType::kNormUpdate), Family::kNorm);
  EXPECT_EQ(family_of(RecordType::kResidualNorm), Family::kNorm);
  EXPECT_EQ(family_of(RecordType::kSolveUpdate), Family::kEstimate);
  EXPECT_EQ(family_of(RecordType::kCorrection), Family::kEstimate);

  for (int t = 0; t < kNumRecordTypes; ++t) {
    EXPECT_NE(record_type_name(static_cast<RecordType>(t)), nullptr);
  }
}

TEST(Codec, RoundTripsAllRecordTypes) {
  const RecordType kAll[] = {RecordType::kGhostDelta, RecordType::kNormUpdate,
                             RecordType::kResidualNorm,
                             RecordType::kSolveUpdate, RecordType::kCorrection};
  for (const RecordType t : kAll) {
    for (const std::size_t nb :
         {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
      SCOPED_TRACE(std::string(record_type_name(t)) + " nb=" +
                   std::to_string(nb));
      const auto buf = encode(t, 0.5, 0.25, nb);
      const Record rec = decode_record(family_of(t), buf, nb);
      EXPECT_EQ(rec.type, t);
      if (t != RecordType::kGhostDelta) {
        EXPECT_EQ(rec.norm2, 0.5);
      }
      if (t == RecordType::kSolveUpdate || t == RecordType::kCorrection) {
        EXPECT_EQ(rec.gamma2, 0.25);
      }
      const bool has_dx =
          t == RecordType::kGhostDelta || t == RecordType::kNormUpdate ||
          t == RecordType::kSolveUpdate;
      const bool has_rb =
          t == RecordType::kSolveUpdate || t == RecordType::kCorrection;
      ASSERT_EQ(rec.dx.size(), has_dx ? nb : 0u);
      ASSERT_EQ(rec.rb.size(), has_rb ? nb : 0u);
      for (std::size_t i = 0; i < rec.dx.size(); ++i) {
        EXPECT_EQ(rec.dx[i], 10.0 + static_cast<double>(i));
      }
      for (std::size_t i = 0; i < rec.rb.size(); ++i) {
        EXPECT_EQ(rec.rb[i], -(10.0 + static_cast<double>(i)));
      }
    }
  }
}

// The byte-compatibility contract: the encoder must produce EXACTLY the
// layouts the solvers historically hand-rolled, or the committed bench
// baselines would drift.
TEST(Codec, EncodingMatchesLegacyByteLayout) {
  EXPECT_EQ(encode(RecordType::kGhostDelta, 0, 0, 3),
            (std::vector<double>{10, 11, 12}));
  EXPECT_EQ(encode(RecordType::kNormUpdate, 0.5, 0, 3),
            (std::vector<double>{0.0, 0.5, 10, 11, 12}));
  EXPECT_EQ(encode(RecordType::kResidualNorm, 0.5, 0, 3),
            (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(encode(RecordType::kSolveUpdate, 0.5, 0.25, 3),
            (std::vector<double>{0.0, 0.5, 0.25, 10, 11, 12, -10, -11, -12}));
  EXPECT_EQ(encode(RecordType::kCorrection, 0.5, 0.25, 3),
            (std::vector<double>{1.0, 0.5, 0.25, -10, -11, -12}));
}

TEST(Codec, RejectsWrongSizeAndDiscriminator) {
  // Wrong payload length for the channel width.
  const std::vector<double> three{0.0, 1.0, 2.0};
  EXPECT_THROW(decode_record(Family::kDelta, three, 5), CheckError);
  EXPECT_THROW(decode_record(Family::kNorm, three, 5), CheckError);
  EXPECT_THROW(decode_record(Family::kEstimate, three, 5), CheckError);
  // Unknown discriminator (neither 0 nor 1).
  const std::vector<double> bad_disc{2.0, 1.0};
  EXPECT_THROW(decode_record(Family::kNorm, bad_disc, 0), CheckError);
  // Empty payload on a non-empty channel.
  EXPECT_THROW(decode_record(Family::kDelta, std::vector<double>{}, 1),
               CheckError);
}

// Width-0 channels (a neighbor with an empty ghost layer) are legal: the
// GhostDelta encoding is an empty payload and must decode back.
TEST(Codec, EmptyGhostLayerRoundTrips) {
  const auto buf = encode(RecordType::kGhostDelta, 0, 0, 0);
  EXPECT_TRUE(buf.empty());
  const Record rec = decode_record(Family::kDelta, buf, 0);
  EXPECT_EQ(rec.type, RecordType::kGhostDelta);
  EXPECT_TRUE(rec.dx.empty());
}

// ---------------------------------------------------------------------------
// Frames.

std::vector<double> make_frame(const std::vector<RecordType>& types,
                               std::size_t nb) {
  std::vector<std::size_t> lengths;
  std::vector<double> bodies;
  for (std::size_t i = 0; i < types.size(); ++i) {
    const auto body = encode(types[i], 0.5 + static_cast<double>(i), 0.25, nb,
                             10.0 * static_cast<double>(i + 1));
    lengths.push_back(body.size());
    bodies.insert(bodies.end(), body.begin(), body.end());
  }
  std::vector<double> frame(frame_doubles(lengths));
  encode_frame(types, lengths, bodies, frame);
  return frame;
}

TEST(Frame, SizesAndMagic) {
  const std::vector<std::size_t> lengths{7, 7};
  EXPECT_EQ(frame_doubles(lengths),
            kFrameHeaderDoubles + 2 * kFrameEntryDoubles + 14);
  EXPECT_NE(frame_magic(), frame_magic());  // a NaN, as documented
  const auto frame =
      make_frame({RecordType::kSolveUpdate, RecordType::kSolveUpdate}, 2);
  EXPECT_TRUE(is_frame(frame));
  EXPECT_EQ(frame[1], static_cast<double>(kWireVersion));
  EXPECT_EQ(frame[2], 2.0);
}

TEST(Frame, RoundTripMixedRecords) {
  const std::size_t nb = 2;
  const auto frame = make_frame(
      {RecordType::kSolveUpdate, RecordType::kCorrection,
       RecordType::kSolveUpdate},
      nb);
  std::vector<Record> seen;
  std::vector<std::vector<double>> dx_copies, rb_copies;
  for_each_record(Family::kEstimate, frame, nb, [&](const Record& rec) {
    seen.push_back(rec);
    dx_copies.emplace_back(rec.dx.begin(), rec.dx.end());
    rb_copies.emplace_back(rec.rb.begin(), rec.rb.end());
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].type, RecordType::kSolveUpdate);
  EXPECT_EQ(seen[1].type, RecordType::kCorrection);
  EXPECT_EQ(seen[2].type, RecordType::kSolveUpdate);
  EXPECT_EQ(seen[0].norm2, 0.5);
  EXPECT_EQ(seen[1].norm2, 1.5);
  EXPECT_EQ(seen[2].norm2, 2.5);
  EXPECT_EQ(dx_copies[0], (std::vector<double>{10, 11}));
  EXPECT_TRUE(dx_copies[1].empty());  // corrections carry no dx
  EXPECT_EQ(rb_copies[1], (std::vector<double>{-20, -21}));
  EXPECT_EQ(dx_copies[2], (std::vector<double>{30, 31}));
}

TEST(Frame, BareRecordsAreNeverMistakenForFrames) {
  const RecordType kAll[] = {RecordType::kGhostDelta, RecordType::kNormUpdate,
                             RecordType::kResidualNorm,
                             RecordType::kSolveUpdate, RecordType::kCorrection};
  for (const RecordType t : kAll) {
    EXPECT_FALSE(is_frame(encode(t, 0.5, 0.25, 4)));
  }
}

TEST(Frame, RejectsMalformedFrames) {
  const std::size_t nb = 2;
  const auto good =
      make_frame({RecordType::kSolveUpdate, RecordType::kSolveUpdate}, nb);
  const auto walk = [nb](std::span<const double> payload) {
    std::size_t n = 0;
    for_each_record(Family::kEstimate, payload, nb,
                    [&](const Record&) { ++n; });
    return n;
  };
  ASSERT_EQ(walk(good), 2u);

  auto tampered = good;
  tampered[1] = static_cast<double>(kWireVersion + 1);  // future version
  EXPECT_THROW(walk(tampered), CheckError);

  tampered = good;
  tampered[2] = 3.0;  // count claims more records than present
  EXPECT_THROW(walk(tampered), CheckError);

  tampered = good;
  tampered[2] = 1.5;  // non-integral count
  EXPECT_THROW(walk(tampered), CheckError);

  tampered = good;
  tampered[3] = 9.0;  // unknown record type in the first entry
  EXPECT_THROW(walk(tampered), CheckError);

  tampered = good;
  tampered[4] = tampered[4] - 1.0;  // length inconsistent with the type/width
  EXPECT_THROW(walk(tampered), CheckError);

  // Truncated payload.
  EXPECT_THROW(walk(std::span<const double>(good).first(good.size() - 1)),
               CheckError);

  // Trailing garbage after the last record.
  tampered = good;
  tampered.push_back(0.0);
  EXPECT_THROW(walk(tampered), CheckError);
}

// ---------------------------------------------------------------------------
// CommPlan / ChannelSet.

TEST(CommPlan, ReportsPeersAndBufferSizingHint) {
  CommPlan plan({{{1, 2, 3}, {2, 4, 1}}, {{0, 3, 2}}, {{0, 1, 4}}});
  EXPECT_EQ(plan.num_ranks(), 3);
  ASSERT_EQ(plan.peers(0).size(), 2u);
  EXPECT_EQ(plan.peers(0)[1].rank, 2);
  EXPECT_EQ(plan.peers(0)[1].send_width, 4u);
  EXPECT_EQ(plan.peers(0)[1].recv_width, 1u);
  // Largest record: a SolveUpdate on the width-4 channel = 3 + 2*4.
  EXPECT_EQ(plan.max_record_doubles(), 11u);
}

TEST(ChannelSet, DirectModeStagesBareRecords) {
  CommPlan plan({{{1, 2, 3}}, {{0, 3, 2}}});
  simmpi::Runtime rt(2);
  ChannelSet ch(plan, 0);
  simmpi::RankContext ctx(rt, 0);
  auto rec = ch.open(ctx, 0, RecordType::kNormUpdate, 0.25);
  ASSERT_EQ(rec.dx.size(), 2u);
  rec.dx[0] = 1.5;
  rec.dx[1] = 2.5;
  ch.flush(ctx);  // no-op in direct mode
  rt.fence();
  const auto win = rt.window(1);
  ASSERT_EQ(win.size(), 1u);
  EXPECT_EQ(win[0].source, 0);
  EXPECT_EQ(win[0].tag, simmpi::MsgTag::kSolve);
  EXPECT_EQ(win[0].payload, (std::vector<double>{0.0, 0.25, 1.5, 2.5}));
  EXPECT_EQ(rt.stats().total_messages(), 1u);
  EXPECT_EQ(rt.stats().logical_messages(), 1u);
}

TEST(ChannelSet, CoalescingPacksOnePhysicalMessage) {
  CommPlan plan({{{1, 2, 3}}, {{0, 3, 2}}});
  simmpi::Runtime rt(2);
  ChannelSet ch(plan, 0);
  ch.set_coalescing(true);
  simmpi::RankContext ctx(rt, 0);
  for (int i = 0; i < 2; ++i) {
    auto rec = ch.open(ctx, 0, RecordType::kSolveUpdate,
                       0.5 + static_cast<double>(i), 0.25);
    for (std::size_t g = 0; g < 2; ++g) {
      rec.dx[g] = static_cast<double>(10 * (i + 1) + static_cast<int>(g));
      rec.rb[g] = -rec.dx[g];
    }
  }
  EXPECT_EQ(ch.buffered(0), 2u);
  ch.flush(ctx);
  EXPECT_EQ(ch.buffered(0), 0u);
  rt.fence();

  // One physical message carrying two logical records.
  EXPECT_EQ(rt.stats().total_messages(), 1u);
  EXPECT_EQ(rt.stats().logical_messages(), 2u);
  EXPECT_EQ(rt.stats().logical_messages(simmpi::MsgTag::kSolve), 2u);
  const auto win = rt.window(1);
  ASSERT_EQ(win.size(), 1u);
  ASSERT_TRUE(is_frame(win[0].payload));
  std::vector<double> norms;
  for_each_record(Family::kEstimate, win[0].payload, 2,
                  [&](const Record& rec) {
                    EXPECT_EQ(rec.type, RecordType::kSolveUpdate);
                    norms.push_back(rec.norm2);
                    EXPECT_EQ(rec.dx[0], -rec.rb[0]);
                  });
  EXPECT_EQ(norms, (std::vector<double>{0.5, 1.5}));
}

// A coalesced group of ONE record must ship in the bare encoding —
// byte-identical to direct mode. This is what makes -coalesce provably
// behavior-preserving for the paper's one-record-per-(neighbor, epoch)
// solvers.
TEST(ChannelSet, SingleRecordGroupShipsBare) {
  CommPlan plan({{{1, 2, 3}}, {{0, 3, 2}}});
  std::vector<double> payloads[2];
  for (const bool coalesce : {false, true}) {
    simmpi::Runtime rt(2);
    ChannelSet ch(plan, 0);
    ch.set_coalescing(coalesce);
    simmpi::RankContext ctx(rt, 0);
    auto rec = ch.open(ctx, 0, RecordType::kCorrection, 0.5, 0.25);
    rec.rb[0] = 3.0;
    rec.rb[1] = 4.0;
    ch.flush(ctx);
    rt.fence();
    const auto win = rt.window(1);
    ASSERT_EQ(win.size(), 1u);
    EXPECT_EQ(rt.stats().logical_messages(), 1u);
    payloads[coalesce ? 1 : 0] = win[0].payload;
  }
  EXPECT_FALSE(is_frame(payloads[1]));
  EXPECT_EQ(payloads[0], payloads[1]);
}

TEST(ChannelSet, MixedTagFlushIsRejected) {
  CommPlan plan({{{1, 2, 3}}, {{0, 3, 2}}});
  simmpi::Runtime rt(2);
  ChannelSet ch(plan, 0);
  ch.set_coalescing(true);
  simmpi::RankContext ctx(rt, 0);
  auto a = ch.open(ctx, 0, RecordType::kSolveUpdate, 0.5, 0.25);
  a.dx[0] = a.dx[1] = a.rb[0] = a.rb[1] = 0.0;
  auto b = ch.open(ctx, 0, RecordType::kCorrection, 0.5, 0.25);
  b.rb[0] = b.rb[1] = 0.0;
  // kSolveUpdate travels as kSolve, kCorrection as kResidual: a frame
  // mixing them would make the Table 3 per-tag accounting ambiguous.
  EXPECT_THROW(ch.flush(ctx), CheckError);
}

TEST(ChannelSet, TogglingWithBufferedRecordsIsRejected) {
  CommPlan plan({{{1, 2, 3}}, {{0, 3, 2}}});
  simmpi::Runtime rt(2);
  ChannelSet ch(plan, 0);
  ch.set_coalescing(true);
  simmpi::RankContext ctx(rt, 0);
  auto rec = ch.open(ctx, 0, RecordType::kResidualNorm, 0.5);
  (void)rec;
  EXPECT_THROW(ch.set_coalescing(false), CheckError);
}

TEST(ChannelSet, ZeroWidthChannelsAndZeroNeighborRanks) {
  // Rank 0 sends a width-0 GhostDelta to rank 1; rank 1 has no peers at
  // all (an interior-only partition piece).
  CommPlan plan({{{1, 0, 0}}, {}});
  EXPECT_TRUE(plan.peers(1).empty());
  simmpi::Runtime rt(2);
  ChannelSet ch0(plan, 0), ch1(plan, 1);
  simmpi::RankContext c0(rt, 0), c1(rt, 1);
  auto rec = ch0.open(c0, 0, RecordType::kGhostDelta);
  EXPECT_TRUE(rec.dx.empty());
  ch0.flush(c0);
  ch1.flush(c1);  // nothing to do, must not throw
  rt.fence();
  const auto win = rt.window(1);
  ASSERT_EQ(win.size(), 1u);
  EXPECT_TRUE(win[0].payload.empty());
  std::size_t n = 0;
  for_each_record(Family::kDelta, win[0].payload, 0, [&](const Record& r) {
    EXPECT_TRUE(r.dx.empty());
    ++n;
  });
  EXPECT_EQ(n, 1u);
}

}  // namespace
}  // namespace dsouth::wire

// ---------------------------------------------------------------------------
// Solver-level properties.

namespace dsouth::dist {
namespace {

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t k, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  auto g = graph::Graph::from_matrix_structure(p.a);
  p.part = graph::partition_recursive_bisection(g, k);
  return p;
}

const DistMethod kAllMethods[] = {
    DistMethod::kBlockJacobi, DistMethod::kParallelSouthwell,
    DistMethod::kDistributedSouthwell, DistMethod::kMulticolorBlockGs};

// Coalescing is behavior-preserving: every trajectory and every logical
// count is identical, and — because the paper's protocols stage at most one
// record per (neighbor, epoch), so every group ships bare — the physical
// counts and bytes are identical too.
TEST(Coalescing, AllSolversBitIdenticalWithCoalescing) {
  auto p = make_problem(8, 4, 3);
  for (const auto method : kAllMethods) {
    SCOPED_TRACE(method_name(method));
    DistRunOptions opt;
    opt.max_parallel_steps = 12;
    const auto direct = run_distributed(method, p.a, p.part, p.b, p.x0, opt);
    opt.coalesce_messages = true;
    const auto coal = run_distributed(method, p.a, p.part, p.b, p.x0, opt);

    EXPECT_EQ(direct.residual_norm, coal.residual_norm);
    EXPECT_EQ(direct.model_time, coal.model_time);
    EXPECT_EQ(direct.final_x, coal.final_x);
    EXPECT_EQ(direct.comm_totals.msgs_logical, coal.comm_totals.msgs_logical);
    EXPECT_EQ(direct.comm_totals.msgs_logical_solve,
              coal.comm_totals.msgs_logical_solve);
    EXPECT_EQ(direct.comm_totals.msgs_logical_residual,
              coal.comm_totals.msgs_logical_residual);
    // Never more physical messages than logical records...
    EXPECT_LE(coal.comm_totals.msgs, coal.comm_totals.msgs_logical);
    // ...and for these protocols the counts coincide exactly (per-pair
    // minimality: there is never a second record to merge).
    EXPECT_EQ(direct.comm_totals.msgs, coal.comm_totals.msgs);
    EXPECT_EQ(direct.comm_totals.bytes, coal.comm_totals.bytes);
    EXPECT_EQ(direct.comm_totals.msgs, direct.comm_totals.msgs_logical);
  }
}

// The acceptance bar for the pooled encode-in-place hot path: once buffers
// are warm, stepping a solver performs ZERO heap allocations — stage
// buffers, window buffers, scratch vectors, and std::function thunks are
// all recycled or in SBO.
TEST(Allocation, SolverStepsAreAllocationFreeOnceWarm) {
  auto p = make_problem(8, 4, 7);
  for (const auto method : kAllMethods) {
    SCOPED_TRACE(method_name(method));
    DistLayout layout(p.a, p.part);
    simmpi::Runtime rt(4);
    DistRunOptions opt;
    auto solver = make_dist_solver(method, layout, rt, p.b, p.x0, opt);
    // Warm-up: long enough for every (rank, neighbor, record-type) pattern
    // the run exercises to have grown its pooled buffers to steady state
    // (DS correction sets vary from step to step).
    for (int s = 0; s < 60; ++s) solver->step();
    const auto before = g_allocations.load(std::memory_order_relaxed);
    for (int s = 0; s < 10; ++s) solver->step();
    const auto after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u);
  }
}

}  // namespace
}  // namespace dsouth::dist
