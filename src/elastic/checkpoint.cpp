#include "elastic/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "util/error.hpp"

namespace dsouth::elastic {

namespace {

constexpr std::uint64_t kMagic = 0x44534f5554484c45ULL;  // "DSOUTHLE"
constexpr std::size_t kHeaderWords = 9;

std::uint64_t fnv1a(std::span<const std::uint64_t> words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : words) {
    // Hash byte-wise so the digest matches the serialized little-endian
    // bytes, not the host's word layout.
    for (int i = 0; i < 8; ++i) {
      h ^= (w >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// Word-stream writer: everything travels as u64 (doubles bit-cast).
class Writer {
 public:
  void u64(std::uint64_t v) { words_.push_back(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void doubles(std::span<const double> v) {
    u64(v.size());
    for (double d : v) f64(d);
  }
  void u64s(std::span<const std::uint64_t> v) {
    u64(v.size());
    for (std::uint64_t x : v) u64(x);
  }

  std::vector<std::uint64_t>& words() { return words_; }

 private:
  std::vector<std::uint64_t> words_;
};

/// Bounds-checked word-stream reader (mirror of Writer).
class Reader {
 public:
  explicit Reader(std::span<const std::uint64_t> words) : words_(words) {}

  std::uint64_t u64() {
    DSOUTH_CHECK_MSG(pos_ < words_.size(), "checkpoint: truncated payload");
    return words_[pos_++];
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::vector<double> doubles() {
    const std::uint64_t n = count();
    std::vector<double> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(f64());
    return v;
  }
  std::vector<std::uint64_t> u64s() {
    const std::uint64_t n = count();
    std::vector<std::uint64_t> v;
    v.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(u64());
    return v;
  }
  /// An element count: every element takes at least one word, so a count
  /// beyond the words left is corrupt — checked before anything is sized
  /// from it.
  std::uint64_t count() {
    const std::uint64_t n = u64();
    DSOUTH_CHECK_MSG(n <= words_.size() - pos_,
                     "checkpoint: length prefix " << n
                                                  << " exceeds remaining "
                                                  << words_.size() - pos_);
    return n;
  }
  /// A rank id in [0, num_ranks).
  int rank(int num_ranks) {
    const std::int64_t v = i64();
    DSOUTH_CHECK_MSG(v >= 0 && v < num_ranks, "checkpoint: bad rank " << v);
    return static_cast<int>(v);
  }
  bool done() const { return pos_ == words_.size(); }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t pos_ = 0;
};

void write_runtime(Writer& w, const simmpi::RuntimeState& rs) {
  w.u64(rs.epochs);
  w.f64(rs.model_time);
  w.f64(rs.last_epoch_seconds);
  w.u64(rs.arrival_counter);
  w.u64s(rs.lane_seq);
  w.doubles(rs.pending_flops);
  std::vector<std::uint64_t> stats;
  rs.stats.save(stats);
  w.u64s(stats);
  w.u64(rs.window_msgs.size());
  for (const auto& m : rs.window_msgs) {
    w.i64(m.dest);
    w.i64(m.source);
    w.i64(static_cast<int>(m.tag));
    w.doubles(m.payload);
  }
  w.u64(rs.deferred.size());
  for (const auto& m : rs.deferred) {
    w.i64(m.dest);
    w.i64(m.source);
    w.i64(static_cast<int>(m.tag));
    w.u64(m.seq);
    w.u64(m.staged_epoch);
    w.u64(m.deliver_epoch);
    w.u64(m.arrival);
    w.doubles(m.payload);
  }
}

simmpi::MsgTag read_tag(Reader& r) {
  const std::int64_t t = r.i64();
  DSOUTH_CHECK_MSG(t >= 0 && t < simmpi::kNumTags,
                   "checkpoint: bad message tag " << t);
  return static_cast<simmpi::MsgTag>(t);
}

simmpi::RuntimeState read_runtime(Reader& r, int num_ranks) {
  simmpi::RuntimeState rs(num_ranks);
  rs.epochs = r.u64();
  rs.model_time = r.f64();
  rs.last_epoch_seconds = r.f64();
  rs.arrival_counter = r.u64();
  rs.lane_seq = r.u64s();
  DSOUTH_CHECK_MSG(
      rs.lane_seq.size() == static_cast<std::size_t>(num_ranks),
      "checkpoint: lane_seq count " << rs.lane_seq.size() << " != ranks "
                                    << num_ranks);
  rs.pending_flops = r.doubles();
  DSOUTH_CHECK_MSG(rs.pending_flops.size() ==
                       static_cast<std::size_t>(num_ranks),
                   "checkpoint: pending_flops count "
                       << rs.pending_flops.size() << " != ranks "
                       << num_ranks);
  const std::vector<std::uint64_t> stats = r.u64s();
  rs.stats.load(stats);
  const std::uint64_t n_win = r.count();
  rs.window_msgs.reserve(n_win);
  for (std::uint64_t i = 0; i < n_win; ++i) {
    simmpi::RuntimeState::WindowMsg m;
    m.dest = r.rank(num_ranks);
    m.source = r.rank(num_ranks);
    m.tag = read_tag(r);
    m.payload = r.doubles();
    rs.window_msgs.push_back(std::move(m));
  }
  const std::uint64_t n_def = r.count();
  rs.deferred.reserve(n_def);
  for (std::uint64_t i = 0; i < n_def; ++i) {
    simmpi::RuntimeState::InFlight m;
    m.dest = r.rank(num_ranks);
    m.source = r.rank(num_ranks);
    m.tag = read_tag(r);
    m.seq = r.u64();
    m.staged_epoch = r.u64();
    m.deliver_epoch = r.u64();
    m.arrival = r.u64();
    m.payload = r.doubles();
    rs.deferred.push_back(std::move(m));
  }
  return rs;
}

void write_solver(Writer& w,
                  const dist::DistStationarySolver::SolverState& ss) {
  w.i64(ss.resil_step_count);
  auto nested = [&w](const auto& outer) {
    w.u64(outer.size());
    for (const auto& inner : outer) w.doubles(inner);
  };
  nested(ss.x);
  nested(ss.r);
  w.u64(ss.send_seq.size());
  for (const auto& per_peer : ss.send_seq) w.u64s(per_peer);
  w.u64(ss.ghost_x.size());
  for (const auto& per_peer : ss.ghost_x) nested(per_peer);
  w.u64(ss.recv_min_seq.size());
  for (const auto& per_peer : ss.recv_min_seq) w.u64s(per_peer);
  w.u64(ss.last_send_step.size());
  for (const auto& per_peer : ss.last_send_step) {
    w.u64(per_peer.size());
    for (index_t s : per_peer) w.i64(s);
  }
  w.u64(ss.resil_stats.size());
  for (const auto& rs : ss.resil_stats) {
    w.u64(rs.rejected_corrupt);
    w.u64(rs.rejected_stale);
    w.u64(rs.refreshes_sent);
  }
  w.doubles(ss.extra);
}

dist::DistStationarySolver::SolverState read_solver(Reader& r) {
  dist::DistStationarySolver::SolverState ss;
  ss.resil_step_count = static_cast<index_t>(r.i64());
  auto nested = [&r](auto& outer) {
    outer.resize(r.count());
    for (auto& inner : outer) inner = r.doubles();
  };
  nested(ss.x);
  nested(ss.r);
  ss.send_seq.resize(r.count());
  for (auto& per_peer : ss.send_seq) per_peer = r.u64s();
  ss.ghost_x.resize(r.count());
  for (auto& per_peer : ss.ghost_x) nested(per_peer);
  ss.recv_min_seq.resize(r.count());
  for (auto& per_peer : ss.recv_min_seq) per_peer = r.u64s();
  ss.last_send_step.resize(r.count());
  for (auto& per_peer : ss.last_send_step) {
    per_peer.resize(r.count());
    for (auto& s : per_peer) s = static_cast<index_t>(r.i64());
  }
  ss.resil_stats.resize(r.count());
  for (auto& rs : ss.resil_stats) {
    rs.rejected_corrupt = r.u64();
    rs.rejected_stale = r.u64();
    rs.refreshes_sent = r.u64();
  }
  ss.extra = r.doubles();
  return ss;
}

}  // namespace

std::vector<std::uint8_t> encode(const Checkpoint& c) {
  DSOUTH_CHECK(c.num_ranks > 0);
  Writer w;
  write_runtime(w, c.runtime);
  write_solver(w, c.solver);
  const std::vector<std::uint64_t>& payload = w.words();

  std::vector<std::uint64_t> all;
  all.reserve(kHeaderWords + payload.size());
  all.push_back(kMagic);
  all.push_back(kCheckpointVersion);
  all.push_back(payload.size());
  all.push_back(fnv1a(payload));
  all.push_back(static_cast<std::uint64_t>(c.num_ranks));
  all.push_back(static_cast<std::uint64_t>(c.method));
  all.push_back(c.flags);
  all.push_back(c.epoch);
  all.push_back(static_cast<std::uint64_t>(c.step));
  all.insert(all.end(), payload.begin(), payload.end());

  // Explicit little-endian serialization: buffers are comparable (and in
  // principle portable) across hosts, not just within one process.
  std::vector<std::uint8_t> bytes(8 * all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      bytes[8 * i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>((all[i] >> (8 * b)) & 0xffULL);
    }
  }
  return bytes;
}

Checkpoint decode(std::span<const std::uint8_t> bytes) {
  DSOUTH_CHECK_MSG(bytes.size() % 8 == 0 &&
                       bytes.size() >= 8 * kHeaderWords,
                   "checkpoint: bad buffer size " << bytes.size());
  std::vector<std::uint64_t> all(bytes.size() / 8);
  for (std::size_t i = 0; i < all.size(); ++i) {
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b) {
      w |= static_cast<std::uint64_t>(bytes[8 * i + static_cast<std::size_t>(b)])
           << (8 * b);
    }
    all[i] = w;
  }
  DSOUTH_CHECK_MSG(all[0] == kMagic, "checkpoint: bad magic");
  DSOUTH_CHECK_MSG(all[1] == kCheckpointVersion,
                   "checkpoint: unsupported version " << all[1]);
  const std::uint64_t payload_words = all[2];
  DSOUTH_CHECK_MSG(all.size() == kHeaderWords + payload_words,
                   "checkpoint: payload length mismatch");
  const std::span<const std::uint64_t> payload(all.data() + kHeaderWords,
                                               payload_words);
  DSOUTH_CHECK_MSG(fnv1a(payload) == all[3], "checkpoint: checksum mismatch");

  DSOUTH_CHECK_MSG(all[4] > 0 && std::in_range<int>(all[4]),
                   "checkpoint: bad rank count " << all[4]);
  DSOUTH_CHECK_MSG(std::in_range<int>(all[5]),
                   "checkpoint: bad method id " << all[5]);
  Checkpoint c;
  c.num_ranks = static_cast<int>(all[4]);
  c.method = static_cast<int>(all[5]);
  c.flags = all[6];
  c.epoch = all[7];
  c.step = static_cast<index_t>(all[8]);

  Reader r(payload);
  c.runtime = read_runtime(r, c.num_ranks);
  c.solver = read_solver(r);
  DSOUTH_CHECK_MSG(r.done(), "checkpoint: trailing payload words");
  return c;
}

}  // namespace dsouth::elastic
