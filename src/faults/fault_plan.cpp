#include "faults/fault_plan.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::faults {

namespace {

// Per-fault-type salts (arbitrary distinct constants).
constexpr std::uint64_t kSaltDrop = 0xD409ULL;
constexpr std::uint64_t kSaltDuplicate = 0xD0B1ULL;
constexpr std::uint64_t kSaltReorder = 0x4E04ULL;
constexpr std::uint64_t kSaltCorrupt = 0xC042ULL;
constexpr std::uint64_t kSaltTruncate = 0x7420ULL;
constexpr std::uint64_t kSaltKill = 0xDEADULL;

inline void check_probability(double p) { DSOUTH_CHECK(p >= 0.0 && p <= 1.0); }

void check_edge(const EdgeFaults& e) {
  check_probability(e.drop_probability);
  check_probability(e.duplicate_probability);
  check_probability(e.reorder_probability);
  check_probability(e.corrupt_probability);
  check_probability(e.truncate_probability);
}

}  // namespace

bool FaultPlan::any() const {
  if (defaults.any()) return true;
  for (const auto& e : edges) {
    if (e.faults.any()) return true;
  }
  for (const auto& s : stragglers) {
    if (s.slowdown != 1.0) return true;
  }
  for (const auto& s : stalls) {
    if (s.epochs > 0) return true;
  }
  if (!kills.empty()) return true;
  if (random_kills.probability > 0.0 && random_kills.max_kill_epoch > 0) {
    return true;
  }
  return false;
}

FaultSchedule::FaultSchedule(const FaultPlan& plan, int num_ranks)
    : plan_(plan),
      num_ranks_(num_ranks),
      edges_(static_cast<std::size_t>(num_ranks) *
                 static_cast<std::size_t>(num_ranks),
             plan.defaults),
      slowdowns_(static_cast<std::size_t>(num_ranks), 1.0),
      stalls_(static_cast<std::size_t>(num_ranks)),
      kill_epochs_(static_cast<std::size_t>(num_ranks), kNeverKilled) {
  DSOUTH_CHECK(num_ranks > 0);
  DSOUTH_CHECK(plan.max_reorder_epochs >= 1);
  check_edge(plan.defaults);
  for (const auto& o : plan.edges) {
    DSOUTH_CHECK(o.src >= 0 && o.src < num_ranks);
    DSOUTH_CHECK(o.dst >= 0 && o.dst < num_ranks);
    DSOUTH_CHECK_MSG(o.src != o.dst, "fault edge " << o.src << " -> itself");
    check_edge(o.faults);
    edges_[static_cast<std::size_t>(o.src) *
               static_cast<std::size_t>(num_ranks) +
           static_cast<std::size_t>(o.dst)] = o.faults;
  }
  for (const auto& s : plan.stragglers) {
    DSOUTH_CHECK(s.rank >= 0 && s.rank < num_ranks);
    DSOUTH_CHECK_MSG(s.slowdown >= 1.0, "straggler speeds a rank up");
    slowdowns_[static_cast<std::size_t>(s.rank)] = s.slowdown;
  }
  for (const auto& s : plan.stalls) {
    DSOUTH_CHECK(s.rank >= 0 && s.rank < num_ranks);
    stalls_[static_cast<std::size_t>(s.rank)].push_back(s);
  }
  for (auto& per_rank : stalls_) {
    std::sort(per_rank.begin(), per_rank.end(),
              [](const Stall& a, const Stall& b) {
                return a.first_epoch < b.first_epoch;
              });
  }
  // Permanent failures: explicit overrides first (earliest epoch wins) ...
  for (const auto& k : plan.kills) {
    DSOUTH_CHECK(k.rank >= 0 && k.rank < num_ranks);
    auto& e = kill_epochs_[static_cast<std::size_t>(k.rank)];
    e = std::min(e, k.epoch);
  }
  // ... then the seeded per-(rank, epoch) draws, precomputed so fence-time
  // queries are lookups. The draw key deliberately matches the documented
  // (seed, salt, epoch, rank) shape: src == dst == rank, seq == 0.
  const RandomKills& rk = plan.random_kills;
  check_probability(rk.probability);
  if (rk.probability > 0.0) {
    for (int r = 0; r < num_ranks; ++r) {
      auto& e = kill_epochs_[static_cast<std::size_t>(r)];
      for (std::uint64_t epoch = 0;
           epoch < rk.max_kill_epoch && epoch < e; ++epoch) {
        if (util::unit_interval(util::keyed_draw(plan.seed, kSaltKill, epoch,
                                                 r, r, /*seq=*/0)) <
            rk.probability) {
          e = epoch;
          break;
        }
      }
    }
  }
  for (auto e : kill_epochs_) {
    if (e != kNeverKilled) any_kills_ = true;
  }
}

std::uint64_t FaultSchedule::kill_epoch(int rank) const {
  DSOUTH_ASSERT(rank >= 0 && rank < num_ranks_);
  return kill_epochs_[static_cast<std::size_t>(rank)];
}

FaultDecision FaultSchedule::decide(std::uint64_t epoch, int src, int dst,
                                    std::uint64_t seq,
                                    std::size_t payload_doubles) const {
  DSOUTH_ASSERT(src >= 0 && src < num_ranks_);
  DSOUTH_ASSERT(dst >= 0 && dst < num_ranks_);
  const EdgeFaults& e = edge(src, dst);
  // Every draw is keyed by this message; `hit` is the coin of one fault
  // type, its lane-1/2 sub-draws size the fault.
  const auto draw = [&](std::uint64_t salt, std::uint64_t lane) {
    return util::keyed_draw(plan_.seed, salt, epoch, src, dst, seq, lane);
  };
  const auto hit = [&](double p, std::uint64_t salt) {
    return p > 0.0 && util::unit_interval(draw(salt, 0)) < p;
  };
  FaultDecision d;
  if (hit(e.drop_probability, kSaltDrop)) {
    d.drop = true;
    return d;  // a dropped message suffers no further faults
  }
  d.duplicate = hit(e.duplicate_probability, kSaltDuplicate);
  if (hit(e.reorder_probability, kSaltReorder)) {
    d.reorder_extra =
        1 + static_cast<int>(
                draw(kSaltReorder, 1) %
                static_cast<std::uint64_t>(plan_.max_reorder_epochs));
  }
  if (payload_doubles > 0 && hit(e.corrupt_probability, kSaltCorrupt)) {
    d.corrupt = true;
    d.corrupt_index = static_cast<std::size_t>(
        draw(kSaltCorrupt, 1) % static_cast<std::uint64_t>(payload_doubles));
    d.corrupt_bit = static_cast<int>(draw(kSaltCorrupt, 2) % 64);
  }
  if (payload_doubles > 0 && hit(e.truncate_probability, kSaltTruncate)) {
    d.truncate = true;
    d.truncate_len = static_cast<std::size_t>(
        draw(kSaltTruncate, 1) % static_cast<std::uint64_t>(payload_doubles));
    d.corrupt = false;  // truncation supersedes the bit flip
  }
  return d;
}

double FaultSchedule::slowdown(int rank) const {
  DSOUTH_ASSERT(rank >= 0 && rank < num_ranks_);
  return slowdowns_[static_cast<std::size_t>(rank)];
}

std::uint64_t FaultSchedule::hold_until(int rank, std::uint64_t epoch) const {
  DSOUTH_ASSERT(rank >= 0 && rank < num_ranks_);
  std::uint64_t until = epoch;
  for (const auto& s : stalls_[static_cast<std::size_t>(rank)]) {
    if (s.first_epoch > epoch) break;  // sorted by start; none can cover
    const std::uint64_t end = s.first_epoch + s.epochs;
    if (epoch < end) until = std::max(until, end);
  }
  return until;
}

}  // namespace dsouth::faults
