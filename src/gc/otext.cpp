#include "gc/otext.h"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "crypto/transpose.h"
#include "gc/otpre.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace arm2gc::gc {

namespace {

using crypto::Block;

// Domain separation: OT randomness must never overlap the label stream
// (Garbler seeds CtrRng with the raw protocol seed), and sender/receiver
// streams must differ from each other.
constexpr Block kSenderSeedTag{0x6f742d736e642d73ull, 0x61726d3267632d30ull};
constexpr Block kReceiverSeedTag{0x6f742d7263762d72ull, 0x61726d3267632d31ull};

// Hash-tweak domains. Garbling tweaks are small sequential counters, so the
// top bits keep OT hashing disjoint from table hashing under the shared
// fixed-key PiHash.
constexpr std::uint64_t kOtTweakTag = 1ull << 63;
constexpr std::uint64_t kCheckTweakTag = 3ull << 62;

// Every receiver batch opens with one clear header block so the sender can
// validate the pairing *before* deciding how many blocks to read — a state
// mismatch must throw, never block a socket peer on bytes that will
// not come. lo = magic ^ fresh-flag; hi = (batch ordinal << 32) | m.
constexpr std::uint64_t kHeaderMagic = 0x4f542d6261746368ull;  // "OT-batch"

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The per-batch consistency check both sides derive independently: binds
/// the base session id, the batch ordinal, the batch size and the column
/// streams' byte position. Endpoints from different pairings — or desynced
/// by an aborted run, including a request() whose flush() never happened,
/// which advances the receiver's streams but neither ordinal — disagree
/// here and fail before any label is mis-delivered.
Block check_block(const crypto::PiHash& h, Block sid, std::uint64_t batch, std::size_t m,
                  std::uint64_t col_bytes) {
  return h(sid ^ Block{static_cast<std::uint64_t>(m), col_bytes}, kCheckTweakTag ^ batch);
}

}  // namespace

// ---------------------------------------------------------------------------
// IKNP extension backend
// ---------------------------------------------------------------------------

IknpSenderState::IknpSenderState(Block seed) : rng_(seed ^ kSenderSeedTag) {
  for (std::size_t i = 0; i < kOtKappa; ++i) {
    s_[i] = rng_.next_bool() ? 1 : 0;
    if (s_[i]) {
      if (i < 64) {
        s_block_.lo |= 1ull << i;
      } else {
        s_block_.hi |= 1ull << (i - 64);
      }
    }
  }
  col_.reserve(kOtKappa);
}

IknpReceiverState::IknpReceiverState(Block seed) : rng_(seed ^ kReceiverSeedTag) {
  col0_.reserve(kOtKappa);
  col1_.reserve(kOtKappa);
}

class IknpOtSender final : public OtSender {
 public:
  IknpOtSender(Transport& tx, Block seed, IknpSenderState* warm)
      : tx_(&tx),
        owned_(warm != nullptr ? nullptr : std::make_unique<IknpSenderState>(seed)),
        st_(warm != nullptr ? warm : owned_.get()) {}

  void enqueue(Block x0, Block x1) override {
    pend_.push_back(x0);
    pend_.push_back(x1);
  }

  void flush() override {
    if (pend_.empty()) return;
    const std::uint64_t t0 = now_ns();
    IknpSenderState& st = *st_;
    const std::size_t m = pend_.size() / 2;
    const std::size_t stride = (m + 7) / 8;

    // [header][base?][check][columns]: the one-block header is validated
    // first — a mismatched peer changes the stream layout, so every later
    // read depends on agreeing about it here.
    const Block header = tx_->recv();
    const std::uint64_t flag = header.lo ^ kHeaderMagic;
    if (flag > 1) {
      throw std::runtime_error("otext: malformed OT batch header (stream desynchronized)");
    }
    const bool peer_fresh = flag == 1;
    if (peer_fresh == st.based_) {
      throw std::runtime_error(
          "otext: base-OT state mismatch (one endpoint warm, the other fresh; "
          "sender/receiver states must come from the same pairing)");
    }
    if ((header.hi >> 32) != st.batches_ ||
        (header.hi & 0xffffffffull) != static_cast<std::uint64_t>(m)) {
      throw std::runtime_error(
          "otext: OT batch desynchronized (ordinal or size disagrees with the peer)");
    }
    if (peer_fresh) run_base(st);

    const Block chk = tx_->recv();
    if (!(chk == check_block(hash_, st.sid_, st.batches_, m, st.col_bytes_))) {
      throw std::runtime_error(
          "otext: base-OT session mismatch (sender/receiver states were not "
          "paired, or a prior run aborted mid-batch)");
    }

    const std::size_t col_blocks = (kOtKappa * stride + 15) / 16;
    frame_.resize(col_blocks);
    tx_->recv(frame_.data(), col_blocks);
    bytes_.resize(col_blocks * 16);
    for (std::size_t b = 0; b < col_blocks; ++b) frame_[b].to_bytes(bytes_.data() + 16 * b);

    // q_i = G(k_i^{s_i}) ^ s_i * u_i, in place over the received columns.
    q_bytes_.resize(kOtKappa * stride);
    for (std::size_t i = 0; i < kOtKappa; ++i) {
      std::uint8_t* q = q_bytes_.data() + i * stride;
      st.col_[i].fill(q, stride);
      if (st.s_[i]) {
        const std::uint8_t* u = bytes_.data() + i * stride;
        for (std::size_t b = 0; b < stride; ++b) q[b] ^= u[b];
      }
    }

    // Row pivot: q_j (kappa bits per OT), then y_j^b = x_j^b ^ H(q_j ^ b*s).
    st.col_bytes_ += stride;
    rows_.resize(m);
    crypto::transpose_128xn(q_bytes_.data(), stride, m, rows_.data());
    out_.resize(2 * m);
    std::size_t j = 0;
    for (; j + 2 <= m; j += 2) {
      Block in[4] = {rows_[j], rows_[j] ^ st.s_block_, rows_[j + 1],
                     rows_[j + 1] ^ st.s_block_};
      const std::uint64_t tw0 = kOtTweakTag | (st.ot_counter_ + j);
      const std::uint64_t tw1 = kOtTweakTag | (st.ot_counter_ + j + 1);
      const std::uint64_t tweaks[4] = {tw0, tw0, tw1, tw1};
      hash_.hash4(in, tweaks, in);
      out_[2 * j] = pend_[2 * j] ^ in[0];
      out_[2 * j + 1] = pend_[2 * j + 1] ^ in[1];
      out_[2 * j + 2] = pend_[2 * j + 2] ^ in[2];
      out_[2 * j + 3] = pend_[2 * j + 3] ^ in[3];
    }
    for (; j < m; ++j) {
      const std::uint64_t tw = kOtTweakTag | (st.ot_counter_ + j);
      out_[2 * j] = pend_[2 * j] ^ hash_(rows_[j], tw);
      out_[2 * j + 1] = pend_[2 * j + 1] ^ hash_(rows_[j] ^ st.s_block_, tw);
    }
    tx_->send(out_.data(), out_.size(), Traffic::Ot);

    st.ot_counter_ += m;
    st.batches_++;
    stats_.choices += m;
    stats_.batches++;
    // IKNP sits entirely on the online path: header + check + columns +
    // ciphertexts, plus the base exchange on a fresh pairing.
    stats_.online_bytes +=
        16 * (2 + col_blocks + 2 * m + (peer_fresh ? 1 + 2 * kOtKappa : 0));
    pend_.clear();
    stats_.wall_ns += now_ns() - t0;
  }

 private:
  void run_base(IknpSenderState& st) {
    A2G_SPAN("ot.base", "ot");
    A2G_COUNT("ot.base_runs");
    // Base phase, receiver-first: [sid][kappa seed pairs]. The sender keeps
    // only the seed its secret s_i selects (the unchosen one is discarded —
    // a base-OT stand-in; see the header note).
    base_.resize(1 + 2 * kOtKappa);
    tx_->recv(base_.data(), base_.size());
    st.sid_ = base_[0];
    st.col_.clear();
    for (std::size_t i = 0; i < kOtKappa; ++i) {
      st.col_.emplace_back(base_[1 + 2 * i + (st.s_[i] ? 1 : 0)]);
    }
    st.based_ = true;
    stats_.base_ots += kOtKappa;
    base_.clear();
    base_.shrink_to_fit();
  }

  Transport* tx_;
  std::unique_ptr<IknpSenderState> owned_;
  IknpSenderState* st_;
  crypto::PiHash hash_;
  std::vector<Block> pend_;  ///< queued pairs, interleaved (x0, x1)
  std::vector<Block> base_;
  std::vector<Block> frame_;
  std::vector<std::uint8_t> bytes_;
  std::vector<std::uint8_t> q_bytes_;
  std::vector<Block> rows_;
  std::vector<Block> out_;
};

class IknpOtReceiver final : public OtReceiver {
 public:
  IknpOtReceiver(Transport& tx, Block seed, IknpReceiverState* warm)
      : tx_(&tx),
        owned_(warm != nullptr ? nullptr : std::make_unique<IknpReceiverState>(seed)),
        st_(warm != nullptr ? warm : owned_.get()) {}

  void enqueue(bool choice, Block* out) override { pend_.push_back({choice, out}); }

  void request() override {
    if (pend_.empty()) return;
    const std::uint64_t t0 = now_ns();
    IknpReceiverState& st = *st_;
    const std::size_t m = pend_.size();
    const std::size_t stride = (m + 7) / 8;

    const bool fresh = !st.based_;
    const Block header{kHeaderMagic ^ (fresh ? 1ull : 0ull),
                       (st.batches_ << 32) | static_cast<std::uint64_t>(m)};
    tx_->send(header, Traffic::Ot);
    if (fresh) run_base(st);

    // Pack the choice bits; padding bits past m stay zero on both sides.
    r_bytes_.assign(stride, 0);
    for (std::size_t j = 0; j < m; ++j) {
      if (pend_[j].choice) r_bytes_[j / 8] |= static_cast<std::uint8_t>(1u << (j % 8));
    }

    // t_i = G(k_i^0) (kept for finish); u_i = t_i ^ G(k_i^1) ^ r. Every
    // byte of u is one-time-padded by the fresh G(k_i^1) slice, so the
    // transcript carries no information about r beyond the pad structure.
    t_bytes_.resize(kOtKappa * stride);
    const std::size_t col_blocks = (kOtKappa * stride + 15) / 16;
    u_bytes_.assign(col_blocks * 16, 0);
    for (std::size_t i = 0; i < kOtKappa; ++i) {
      std::uint8_t* t = t_bytes_.data() + i * stride;
      std::uint8_t* u = u_bytes_.data() + i * stride;
      st.col0_[i].fill(t, stride);
      st.col1_[i].fill(u, stride);
      for (std::size_t b = 0; b < stride; ++b) u[b] ^= t[b] ^ r_bytes_[b];
    }

    const Block chk = check_block(hash_, st.sid_, st.batches_, m, st.col_bytes_);
    st.col_bytes_ += stride;
    tx_->send(chk, Traffic::Ot);
    frame_.resize(col_blocks);
    for (std::size_t b = 0; b < col_blocks; ++b) {
      frame_[b] = Block::from_bytes(u_bytes_.data() + 16 * b);
    }
    tx_->send(frame_.data(), col_blocks, Traffic::Ot);
    stats_.online_bytes += 16 * (2 + col_blocks + (fresh ? 1 + 2 * kOtKappa : 0));
    stats_.wall_ns += now_ns() - t0;
  }

  void finish() override {
    if (pend_.empty()) return;
    const std::uint64_t t0 = now_ns();
    IknpReceiverState& st = *st_;
    const std::size_t m = pend_.size();
    const std::size_t stride = (m + 7) / 8;

    ct_.resize(2 * m);
    tx_->recv(ct_.data(), ct_.size());

    rows_.resize(m);
    crypto::transpose_128xn(t_bytes_.data(), stride, m, rows_.data());

    // x_j^{r_j} = y_j^{r_j} ^ H(t_j): q_j ^ r_j*s == t_j on the sender side.
    std::size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      Block h[4] = {rows_[j], rows_[j + 1], rows_[j + 2], rows_[j + 3]};
      const std::uint64_t tweaks[4] = {
          kOtTweakTag | (st.ot_counter_ + j), kOtTweakTag | (st.ot_counter_ + j + 1),
          kOtTweakTag | (st.ot_counter_ + j + 2), kOtTweakTag | (st.ot_counter_ + j + 3)};
      hash_.hash4(h, tweaks, h);
      for (std::size_t k = 0; k < 4; ++k) {
        const Pending& p = pend_[j + k];
        *p.out = ct_[2 * (j + k) + (p.choice ? 1 : 0)] ^ h[k];
      }
    }
    for (; j < m; ++j) {
      const Pending& p = pend_[j];
      *p.out = ct_[2 * j + (p.choice ? 1 : 0)] ^
               hash_(rows_[j], kOtTweakTag | (st.ot_counter_ + j));
    }

    st.ot_counter_ += m;
    st.batches_++;
    stats_.choices += m;
    stats_.batches++;
    stats_.online_bytes += 16 * ct_.size();
    pend_.clear();
    stats_.wall_ns += now_ns() - t0;
  }

 private:
  void run_base(IknpReceiverState& st) {
    A2G_SPAN("ot.base", "ot");
    A2G_COUNT("ot.base_runs");
    base_.clear();
    base_.reserve(1 + 2 * kOtKappa);
    st.sid_ = st.rng_.next_block();
    base_.push_back(st.sid_);
    st.col0_.clear();
    st.col1_.clear();
    for (std::size_t i = 0; i < kOtKappa; ++i) {
      const Block k0 = st.rng_.next_block();
      const Block k1 = st.rng_.next_block();
      base_.push_back(k0);
      base_.push_back(k1);
      st.col0_.emplace_back(k0);
      st.col1_.emplace_back(k1);
    }
    tx_->send(base_.data(), base_.size(), Traffic::Ot);
    st.based_ = true;
    stats_.base_ots += kOtKappa;
    base_.clear();
    base_.shrink_to_fit();
  }

  struct Pending {
    bool choice;
    Block* out;
  };

  Transport* tx_;
  std::unique_ptr<IknpReceiverState> owned_;
  IknpReceiverState* st_;
  crypto::PiHash hash_;
  std::vector<Pending> pend_;
  std::vector<Block> base_;
  std::vector<std::uint8_t> r_bytes_;
  std::vector<std::uint8_t> t_bytes_;
  std::vector<std::uint8_t> u_bytes_;
  std::vector<Block> frame_;
  std::vector<Block> ct_;
  std::vector<Block> rows_;
};

std::unique_ptr<OtSender> make_ot_sender(OtBackend backend, Transport& tx, Block seed,
                                         IknpSenderState* warm, RandomOtPoolSender* warm_pool,
                                         std::size_t pool_target) {
  if (backend == OtBackend::Precomp) {
    return make_precomp_ot_sender(tx, seed, warm_pool, pool_target);
  }
  return std::make_unique<IknpOtSender>(tx, seed, warm);
}

std::unique_ptr<OtReceiver> make_ot_receiver(OtBackend backend, Transport& tx, Block seed,
                                             IknpReceiverState* warm,
                                             RandomOtPoolReceiver* warm_pool,
                                             std::size_t pool_target) {
  if (backend == OtBackend::Precomp) {
    return make_precomp_ot_receiver(tx, seed, warm_pool, pool_target);
  }
  return std::make_unique<IknpOtReceiver>(tx, seed, warm);
}

}  // namespace arm2gc::gc
