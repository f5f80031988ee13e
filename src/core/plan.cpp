#include "core/plan.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

namespace arm2gc::core {

namespace {

using crypto::Block;
using netlist::Dff;
using netlist::Gate;
using netlist::Netlist;
using netlist::Owner;
using netlist::WireId;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
/// The XOR-cancellation peephole follows at most this many pass hops back to
/// the FreeXor it cancels against; a deeper chain does not cancel.
constexpr std::uint8_t kMaxPassHops = 64;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::uint64_t fnv1a64_step(std::uint64_t h, std::uint64_t x) {
  h ^= x;
  h *= 1099511628211ull;
  return h;
}

/// Content hash of everything a cached plan depends on besides the entry
/// state: the mode and the netlist structure (names excluded — they cannot
/// affect classification).
std::uint64_t netlist_content_key(const Netlist& nl, Mode mode) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a64_step(h, static_cast<std::uint64_t>(mode));
  h = fnv1a64_step(h, nl.outputs_every_cycle ? 1 : 0);
  for (const netlist::Input& in : nl.inputs) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(in.owner) | (in.streamed ? 4u : 0u) |
                            (static_cast<std::uint64_t>(in.bit_index) << 3));
  }
  for (const Dff& d : nl.dffs) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(d.init) | (d.d_invert ? 4u : 0u) |
                            (static_cast<std::uint64_t>(d.init_index) << 3) |
                            (static_cast<std::uint64_t>(d.d) << 32));
  }
  for (const Gate& g : nl.gates) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(g.a) | (static_cast<std::uint64_t>(g.b) << 32));
    h = fnv1a64_step(h, static_cast<std::uint64_t>(g.tt));
  }
  for (const netlist::OutputPort& o : nl.outputs) {
    h = fnv1a64_step(h, static_cast<std::uint64_t>(o.wire) | (o.invert ? 1ull << 32 : 0));
  }
  return h;
}

/// Plaintext of derived_fp(gate) in a given epoch. The top bit set keeps it
/// disjoint from the root stream's {counter, 0} plaintexts, so derived and
/// root fingerprints never collide and are jointly pseudorandom under the one
/// keyed permutation.
Block derived_plaintext(std::size_t gate, std::uint64_t epoch) {
  return Block{static_cast<std::uint64_t>(gate), (1ull << 63) | epoch};
}

}  // namespace

// ---------------------------------------------------------------------------
// PlanCache: whole-netlist plans, LRU-bounded
// ---------------------------------------------------------------------------

PlanCache::PlanCache(std::size_t budget_bytes, bool insert_on_first_sight)
    : budget_bytes_(budget_bytes), insert_first_(insert_on_first_sight) {}
PlanCache::~PlanCache() = default;

void PlanCache::ensure_sized(std::uint64_t netlist_key, std::size_t num_wires,
                             std::size_t num_gates, std::size_t roots) {
  if (capacity_ != 0) {
    if (netlist_key_ != netlist_key) {
      throw std::invalid_argument("plan cache reused across different netlists");
    }
    return;
  }
  netlist_key_ = netlist_key;
  // Rough per-entry footprint: signature + acts + pass sources + packed
  // wire bits + touch list + two backward variants (emit + live each).
  const std::size_t entry_bytes = 4 * roots + num_gates + 4 * num_gates + num_wires +
                                  4 * num_gates + 256;
  capacity_ = std::clamp<std::size_t>(budget_bytes_ / std::max<std::size_t>(entry_bytes, 1), 4,
                                      65536);
  if (!insert_first_) seen_.resize(next_pow2(8 * capacity_));
}

/// Whether a missed signature should be materialized as a cache entry now.
/// First-sight caches always admit; second-sighting caches admit once the
/// hash has been seen before (hash collisions merely admit early — lookups
/// always compare full signatures).
bool PlanCache::admit(std::uint64_t hash) {
  if (insert_first_) return true;
  const std::size_t mask = seen_.size() - 1;
  const std::uint64_t key = hash != 0 ? hash : 1;
  for (std::size_t i = static_cast<std::size_t>(key) & mask;; i = (i + 1) & mask) {
    if (seen_[i] == key) return true;
    if (seen_[i] == 0) {
      // Mark first sighting; once half-full, stop tracking (and admitting)
      // so probe chains stay short and memory stays bounded.
      if (seen_count_ < seen_.size() / 2) {
        seen_[i] = key;
        ++seen_count_;
      }
      return false;
    }
  }
}

PlanCache::Entry* PlanCache::find(std::uint64_t hash, const std::vector<std::uint32_t>& sig) {
  const auto it = map_.find(hash);
  if (it == map_.end()) return nullptr;
  for (const LruList::iterator li : it->second) {
    if (li->sig == sig) {
      lru_.splice(lru_.begin(), lru_, li);
      return &*li;
    }
  }
  return nullptr;
}

PlanCache::Entry* PlanCache::insert(std::uint64_t hash, const std::vector<std::uint32_t>& sig) {
  if (!admit(hash)) return nullptr;
  if (lru_.size() >= capacity_) {
    // Evict by recycling: unlink the least-recently-used entry from the
    // index and move it to the front, so the classification that refills it
    // reuses the storage of its per-gate arrays instead of freeing and
    // reallocating them. The variable-length lists and the final-cycle
    // backward variant (filled for one state per run) restart empty as in a
    // fresh entry: carried over, each would keep the largest size any
    // occupant needed and the cache would outgrow a fresh one. Emptying the
    // touch list first zeroes the act/pass-source slots it covers.
    const LruList::iterator victim = std::prev(lru_.end());
    const auto vit = map_.find(victim->hash);
    vit->second.erase(std::find(vit->second.begin(), vit->second.end(), victim));
    if (vit->second.empty()) map_.erase(vit);
    victim->clear_touched();
    victim->touch.shrink_to_fit();
    victim->backward[0].work.clear();
    victim->backward[0].work.shrink_to_fit();
    victim->backward[1] = Backward{};
    lru_.splice(lru_.begin(), lru_, victim);
    ++evictions_;
  } else {
    lru_.emplace_front();
  }
  Entry& e = lru_.front();
  e.hash = hash;
  e.sig = sig;
  map_[hash].push_back(lru_.begin());
  return &e;
}

void PlanCache::Entry::clear_touched() {
  for (const std::uint32_t i : touch) {
    act[i] = 0;
    pass_src[i] = 0;
  }
  touch.clear();
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

Planner::Planner(const Netlist& nl, const PlannerOptions& opts)
    : nl_(nl),
      opts_(opts),
      fp_gen_(opts.seed ^ Block{0xf1f2f3f4f5f6f7f8ULL, 0x0102030405060708ULL}) {
  nl_.validate();
  const std::size_t nw = nl_.num_wires();
  fp_.resize(nw);
  root_bits_.resize(nl_.first_gate_wire());
  pass_root_.resize(nw);
  for (WireId w = 0; w < nw; ++w) pass_root_[w] = w;
  pass_depth_.assign(nw, 0);
  needed_.assign(nw, 0);
  non_free_per_cycle_ = nl_.count_non_free();
  netlist_key_ = netlist_content_key(nl_, opts_.mode);

  if (opts_.cache) {
    if (opts_.shared_cache != nullptr) {
      cache_ = opts_.shared_cache;
    } else {
      // Transient per-run cache: second-sighting admission, so cycles whose
      // state never recurs cost a signature probe, not an entry copy.
      owned_cache_ = std::make_unique<PlanCache>(opts_.cache_budget_bytes,
                                                 /*insert_on_first_sight=*/false);
      cache_ = owned_cache_.get();
    }
    const std::size_t roots = netlist::kFirstInputWire + nl_.inputs.size() + nl_.dffs.size();
    cache_->ensure_sized(netlist_key_, nw, nl_.gates.size(), roots);
    class_table_.resize(std::max<std::size_t>(16, next_pow2(2 * roots + 1)));
  }
}

Block Planner::fresh_fp() {
  if (fp_pos_ == kFpBatch) {
    for (std::size_t i = 0; i < kFpBatch; ++i) {
      fp_buf_[i] = crypto::block_from_u64(fp_ctr_++);
    }
    fp_gen_.encrypt_batch(fp_buf_.data(), kFpBatch);
    fp_pos_ = 0;
  }
  return fp_buf_[fp_pos_++];
}

Block Planner::derived_fp(std::size_t gate) const {
  return fp_gen_.encrypt(derived_plaintext(gate, fp_epoch_));
}

void Planner::reset(const netlist::BitVec& pub_bits) {
  const auto pub_bit = [&](std::uint32_t idx, const char* what) {
    if (idx >= pub_bits.size()) {
      throw std::out_of_range(std::string("skipgate: missing ") + what + " bit " +
                              std::to_string(idx));
    }
    return pub_bits[idx];
  };

  // Constants and fixed inputs keep their state for the whole run, and
  // gate processing never writes a root slot, so they are bound once here.
  const auto bind_public = [this](WireId w, bool v) { root_bits_[w] = v ? 3 : 1; };
  const auto bind_secret = [this](WireId w) {
    root_bits_[w] = 0;
    fp_[w] = fresh_fp();
  };

  // Constants. Conventional GC treats even constants as secret wires; the
  // planner tracks them with fingerprints like any other secret.
  if (opts_.mode == Mode::SkipGate) {
    bind_public(netlist::kConst0, false);
    bind_public(netlist::kConst1, true);
  } else {
    bind_secret(netlist::kConst0);
    bind_secret(netlist::kConst1);
  }

  // Fixed primary inputs: public ones carry their value (SkipGate mode);
  // secret ones carry a fresh fingerprint. Values of secret inputs never
  // reach the planner — it consumes public data only.
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (in.streamed) continue;
    if (in.owner == Owner::Public && opts_.mode == Mode::SkipGate) {
      bind_public(nl_.input_wire(i), pub_bit(in.bit_index, "fixed input"));
    } else {
      bind_secret(nl_.input_wire(i));
    }
  }

  // Flip-flop initial values, staged like every later latched state.
  dff_bits_.assign(nl_.dffs.size(), 0);
  dff_fp_.assign(nl_.dffs.size(), Block{});
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    const bool const_init = d.init == Dff::Init::Zero || d.init == Dff::Init::One;
    if (const_init && opts_.mode == Mode::SkipGate) {
      dff_bits_[i] = d.init == Dff::Init::One ? 3 : 1;
    } else {
      dff_fp_[i] = fresh_fp();
    }
  }

  cur_ = nullptr;
}

void Planner::begin_cycle(const netlist::BitVec& pub_stream) {
  // Constants and fixed inputs are still bound from reset(); bind this
  // cycle's streamed inputs and copy in the flip-flops' latched states. A
  // public root's fingerprint slot is never read, so it is not written.
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (!in.streamed) continue;
    const WireId w = nl_.input_wire(i);
    if (in.owner == Owner::Public && opts_.mode == Mode::SkipGate) {
      if (in.bit_index >= pub_stream.size()) {
        throw std::out_of_range("skipgate: missing streamed input bit " +
                                std::to_string(in.bit_index));
      }
      root_bits_[w] = pub_stream[in.bit_index] ? 3 : 1;
    } else {
      root_bits_[w] = 0;
      fp_[w] = fresh_fp();
    }
  }
  // Flip-flop wires are contiguous: block copies.
  std::copy(dff_bits_.begin(), dff_bits_.end(), root_bits_.begin() + nl_.dff_wire(0));
  std::copy(dff_fp_.begin(), dff_fp_.end(), fp_.begin() + nl_.dff_wire(0));
}

std::uint64_t Planner::build_signature() {
  // Class ids are first-occurrence over the root sweep — the canonical
  // whole-netlist entry signature.
  const WireId first_gate = nl_.first_gate_wire();
  sig_.resize(first_gate);
  ++class_epoch_;
  std::uint32_t next_class = 0;
  const std::size_t mask = class_table_.size() - 1;
  const auto class_of = [&](const Block& fp) {
    std::size_t i = std::hash<Block>{}(fp)&mask;
    for (;;) {
      ClassSlot& slot = class_table_[i];
      if (slot.epoch != class_epoch_) {
        slot.epoch = class_epoch_;
        slot.fp = fp;
        slot.id = next_class++;
        return slot.id;
      }
      if (slot.fp == fp) return slot.id;
      i = (i + 1) & mask;
    }
  };
  std::uint64_t h = kFnvOffset;
  for (WireId w = 0; w < first_gate; ++w) {
    const std::uint8_t b = root_bits_[w];
    // Public: 1 | value<<1. Secret: class<<2 | flip<<1.
    const std::uint32_t word = (b & 1) != 0 ? (b & 3u) : (class_of(fp_[w]) << 2) | ((b & 4u) >> 1);
    sig_[w] = word;
    h = fnv1a64_step(h, word);
  }
  return h;
}

void Planner::forward() {
  // Every cycle gets a fresh derived-fingerprint epoch no matter which path
  // serves it (hit, miss, fallback), so category-iv fingerprints are pure
  // functions of (epoch, gate) — identical with and without the cache.
  ++fp_epoch_;
  Entry* e = &scratch_;
  if (cache_ != nullptr) {
    const std::uint64_t h = build_signature();
    if (Entry* hit = cache_->find(h, sig_)) {
      if (verify_touch(*hit)) {
        ++cache_hits_;
        cur_ = hit;
        return;
      }
      // Signature matched but the XOR-linear fingerprint structure drifted:
      // reclassify this cycle uncached. The entry keeps serving states that
      // do match it.
    } else if (Entry* fresh = cache_->insert(h, sig_)) {
      e = fresh;
    }
  }
  ++cache_misses_;
  classify(*e);
  cur_ = e;
}

void Planner::classify(Entry& e) {
  // Public-input gates write neither act nor pass source: both arrays stay
  // all-zero (Public, no source) outside the touch list. The touch list is
  // collected in scratch and stored at its exact size, so entries carry no
  // growth slack.
  const std::size_t ng = nl_.gates.size();
  e.clear_touched();
  touch_.clear();
  e.act.resize(ng);
  e.pass_src.resize(ng);
  e.wire_bits.resize(nl_.num_wires());
  e.backward[0].filled = false;
  e.backward[1].filled = false;
  std::copy(root_bits_.begin(), root_bits_.end(), e.wire_bits.begin());

  const WireId first_gate = nl_.first_gate_wire();
  const Gate* const gates = nl_.gates.data();
  std::uint8_t* const bits = e.wire_bits.data();
  std::uint8_t* const acts = e.act.data();
  WireId* const srcs = e.pass_src.data();
  for (std::size_t i = 0; i < ng; ++i) {
    const Gate g = gates[i];
    const auto w = static_cast<WireId>(first_gate + i);
    const std::uint8_t ba = bits[g.a];
    const std::uint8_t bb = bits[g.b];
    // Conventional mode binds every root secret, so only SkipGate reaches
    // the two public-input categories. Category i touches no fingerprint;
    // category ii at most copies the secret side's.
    if ((ba & bb & 1) != 0) {  // category i: evaluate in the clear
      bits[w] = netlist::tt_eval(g.tt, (ba & 2) != 0, (bb & 2) != 0) ? 3 : 1;
      continue;
    }
    if (((ba | bb) & 1) != 0) {  // category ii: restrict to the secret side
      const bool a_pub = (ba & 1) != 0;
      const netlist::UnaryTable u = a_pub ? netlist::tt_restrict_a(g.tt, (ba & 2) != 0)
                                          : netlist::tt_restrict_b(g.tt, (bb & 2) != 0);
      if (netlist::unary_is_const(u)) {
        bits[w] = u == netlist::kUnOne ? 3 : 1;
        continue;
      }
      acts[i] = static_cast<std::uint8_t>(a_pub ? PlanAct::PassB : PlanAct::PassA);
      bits[w] = static_cast<std::uint8_t>(((a_pub ? bb : ba) & 4) ^ (u == netlist::kUnNot ? 4 : 0));
      link_pass(w, a_pub ? g.b : g.a);
    } else {
      const Decision d = decide(g, bits, acts);
      acts[i] = static_cast<std::uint8_t>(d.act);
      srcs[i] = d.src;
      bits[w] = d.bits;
      settle(w, g, d.act, d.src, d.act == PlanAct::Garble ? derived_fp(i) : Block{});
    }
    // The touch list drives hit verification and the backward sweep: every
    // non-Public action plus every fingerprint-dependent Public collapse
    // (two secret inputs, category iii / constant-affine).
    touch_.push_back(static_cast<std::uint32_t>(i));
  }
  e.touch.assign(touch_.begin(), touch_.end());
}

Planner::Decision Planner::decide(const Gate& g, const std::uint8_t* bits,
                                  const std::uint8_t* acts) const {
  const bool skipgate = opts_.mode == Mode::SkipGate;
  const std::uint8_t fa = bits[g.a] & 4;
  const std::uint8_t fb = bits[g.b] & 4;
  // A unary residual function of one surviving secret input: a constant
  // output, a wire or an inverter (paper Figures 1 and 2).
  const auto unary = [](netlist::UnaryTable u, PlanAct pass, std::uint8_t flip) {
    if (netlist::unary_is_const(u)) {
      return Decision{PlanAct::Public, 0, static_cast<std::uint8_t>(u == netlist::kUnOne ? 3 : 1)};
    }
    return Decision{pass, 0, static_cast<std::uint8_t>(flip ^ (u == netlist::kUnNot ? 4 : 0))};
  };
  if (skipgate && fp_[g.a] == fp_[g.b]) {  // category iii
    return unary(netlist::tt_restrict_diag(g.tt, fa != fb), PlanAct::PassA, fa);
  }
  if (!netlist::tt_is_affine(g.tt)) return Decision{PlanAct::Garble, 0, 0};  // category iv
  // Free under free-XOR.
  if (g.tt == netlist::kTtZero || g.tt == netlist::kTtOne) {
    const bool one = g.tt == netlist::kTtOne;
    if (skipgate) return Decision{PlanAct::Public, 0, static_cast<std::uint8_t>(one ? 3 : 1)};
    return Decision{one ? PlanAct::PassC1 : PlanAct::PassC0, 0,
                    bits[one ? netlist::kConst1 : netlist::kConst0]};
  }
  if (netlist::tt_ignores_a(g.tt)) {
    return unary(netlist::tt_restrict_a(g.tt, false), PlanAct::PassB, fb);
  }
  if (netlist::tt_ignores_b(g.tt)) {
    return unary(netlist::tt_restrict_b(g.tt, false), PlanAct::PassA, fa);
  }
  // XOR / XNOR of two live secrets.
  const auto flip = static_cast<std::uint8_t>(fa ^ fb ^ (g.tt == netlist::kTtXnor ? 4 : 0));
  if (skipgate) {
    // XOR-cancellation peephole: the 1-AND multiplexer f ^ (s & (t^f)) with
    // a public select degenerates to f ^ (t ^ f) == t. Detecting that the
    // result carries exactly an existing wire's label (the paper's "the MUX
    // acts as a wire") releases the unselected side's label from the
    // needed-cone, so its producing gates are skipped. A side's pass root is
    // the wire whose label it forwards; a FreeXor's operands are both
    // secret, so their fingerprints are live.
    const Block out = fp_[g.a] ^ fp_[g.b];
    const WireId first_gate = nl_.first_gate_wire();
    for (const WireId side : {g.a, g.b}) {
      const WireId r = pass_root_[side];
      if (pass_depth_[side] > kMaxPassHops || r < first_gate) continue;
      const std::size_t gi = r - first_gate;
      if (acts[gi] != static_cast<std::uint8_t>(PlanAct::FreeXor)) continue;
      const Gate& g2 = nl_.gates[gi];
      if (fp_[g2.a] == out) return Decision{PlanAct::PassSrc, g2.a, flip};
      if (fp_[g2.b] == out) return Decision{PlanAct::PassSrc, g2.b, flip};
    }
  }
  return Decision{PlanAct::FreeXor, 0, flip};
}

void Planner::link_pass(WireId w, WireId src) {
  fp_[w] = fp_[src];
  pass_root_[w] = pass_root_[src];
  pass_depth_[w] = std::min<std::uint8_t>(pass_depth_[src] + 1, kMaxPassHops + 1);
}

void Planner::settle(WireId w, const Gate& g, PlanAct act, WireId src, const Block& garble_fp) {
  switch (act) {
    case PlanAct::Public: return;
    case PlanAct::PassA: link_pass(w, g.a); return;
    case PlanAct::PassB: link_pass(w, g.b); return;
    case PlanAct::PassSrc: link_pass(w, src); return;
    case PlanAct::PassC0: fp_[w] = fp_[netlist::kConst0]; break;
    case PlanAct::PassC1: fp_[w] = fp_[netlist::kConst1]; break;
    case PlanAct::FreeXor: fp_[w] = fp_[g.a] ^ fp_[g.b]; break;
    case PlanAct::Garble: fp_[w] = garble_fp; break;
  }
  pass_root_[w] = w;
  pass_depth_[w] = 0;
}

bool Planner::verify_touch(const Entry& e) {
  // Fingerprints are cycle state even on a hit: category-iv gates re-derive
  // the same (epoch, gate)-addressed fingerprint a fresh classification
  // would produce and derived fingerprints follow the cached actions, so
  // the planner's state after a verified hit is identical to a fresh
  // classification — and a failed verification needs no stream rollback.
  // Untouched gates are Public with a public input: no fingerprint exists,
  // no decision can drift. Being pure in (epoch, gate), the entry's
  // category-iv fingerprints are derived up front in one pipelined batch.
  const WireId first_gate = nl_.first_gate_wire();
  const bool skipgate = opts_.mode == Mode::SkipGate;
  const std::uint8_t* const bits = e.wire_bits.data();
  const std::uint8_t* const acts = e.act.data();
  garble_fp_.clear();
  for (const std::uint32_t i : e.touch) {
    if (acts[i] == static_cast<std::uint8_t>(PlanAct::Garble)) {
      garble_fp_.push_back(derived_plaintext(i, fp_epoch_));
    }
  }
  fp_gen_.encrypt_batch(garble_fp_.data(), garble_fp_.size());
  const Block* next_garble_fp = garble_fp_.data();

  for (const std::uint32_t i : e.touch) {
    const Gate& g = nl_.gates[i];
    const auto act = static_cast<PlanAct>(acts[i]);
    const WireId src = e.pass_src[i];
    // Re-decide every gate whose classification can depend on a fingerprint
    // comparison — both inputs secret in SkipGate mode (the public/flip
    // structure is pinned by the signature; only fingerprints can drift).
    // Conventional mode makes no fingerprint comparison.
    if (skipgate && ((bits[g.a] | bits[g.b]) & 1) == 0) {
      const Decision d = decide(g, bits, acts);
      if (d.act != act || d.src != src) return false;
    }
    settle(first_gate + i, g, act, src, act == PlanAct::Garble ? *next_garble_fp++ : Block{});
  }
  return true;
}

bool Planner::wire_public(WireId w) const { return (cur_->wire_bits[w] & 1) != 0; }
bool Planner::wire_value(WireId w) const { return (cur_->wire_bits[w] & 2) != 0; }

CyclePlan Planner::finish(bool is_final) {
  PlanCache::Backward& b = cur_->backward[is_final ? 1 : 0];
  if (!b.filled) backward_fill(*cur_, b, is_final);

  CyclePlan plan;
  plan.act = cur_->act.data();
  plan.pass_src = cur_->pass_src.data();
  plan.emit = b.emit.data();
  plan.live = b.live.data();
  if (opts_.mode == Mode::SkipGate) {
    plan.work = b.work.data();
    plan.work_count = b.work.size();
  }
  plan.wire_bits = cur_->wire_bits.data();
  plan.num_gates = nl_.gates.size();
  plan.num_wires = nl_.num_wires();
  plan.emitted = b.emitted;
  plan.is_final = is_final;
  plan.sample = nl_.outputs_every_cycle || is_final;
  return plan;
}

void Planner::backward_fill(const Entry& e, PlanCache::Backward& b, bool is_final) {
  const std::size_t ng = nl_.gates.size();
  b.emit.assign(ng, 0);
  b.live.assign(ng, 0);
  b.work.clear();
  b.emitted = 0;
  b.filled = true;
  if (ng == 0) return;

  if (opts_.mode == Mode::Conventional) {
    // Conventional GC garbles every non-affine gate unconditionally.
    for (std::size_t i = 0; i < ng; ++i) {
      b.emit[i] = e.act[i] == static_cast<std::uint8_t>(PlanAct::Garble) ? 1 : 0;
      b.live[i] = 1;
      b.emitted += b.emit[i];
    }
    return;
  }

  std::fill(needed_.begin(), needed_.end(), 0);
  const bool sample = nl_.outputs_every_cycle || is_final;
  if (sample) {
    for (const netlist::OutputPort& o : nl_.outputs) {
      if ((e.wire_bits[o.wire] & 1) == 0) needed_[o.wire] = 1;
    }
  }
  if (!is_final) {
    // Labels entering flip-flops must survive into the next cycle
    // (paper: "copy flip flops labels"). On the final cycle they are dead,
    // which is how e.g. the last carry of a serial adder gets skipped.
    for (const Dff& d : nl_.dffs) {
      if ((e.wire_bits[d.d] & 1) == 0) needed_[d.d] = 1;
    }
  }

  // Only touched gates can be needed or emit: untouched gates are Public
  // (no label), and `needed` is only ever set on secret wires. Sweep the
  // touch list in reverse gate order.
  const WireId first_gate = nl_.first_gate_wire();
  for (std::size_t t = e.touch.size(); t-- > 0;) {
    const std::size_t i = e.touch[t];
    const WireId w = first_gate + static_cast<WireId>(i);
    if (!needed_[w]) continue;
    const Gate g = nl_.gates[i];
    switch (static_cast<PlanAct>(e.act[i])) {
      case PlanAct::Public:
        break;
      case PlanAct::PassA:
        needed_[g.a] = 1;
        break;
      case PlanAct::PassB:
        needed_[g.b] = 1;
        break;
      case PlanAct::PassC0:
      case PlanAct::PassC1:
        break;  // constants are always bound; nothing to propagate
      case PlanAct::PassSrc:
        needed_[e.pass_src[i]] = 1;
        break;
      case PlanAct::FreeXor:
        needed_[g.a] = 1;
        needed_[g.b] = 1;
        break;
      case PlanAct::Garble:
        b.emit[i] = 1;
        if ((e.wire_bits[g.a] & 1) == 0) needed_[g.a] = 1;
        if ((e.wire_bits[g.b] & 1) == 0) needed_[g.b] = 1;
        break;
    }
  }

  // The sessions' work list is the live subset of the touch list.
  for (const std::uint32_t i : e.touch) {
    b.live[i] = (needed_[first_gate + i] || b.emit[i]) ? 1 : 0;
    b.emitted += b.emit[i];
    if (b.live[i] != 0) b.work.push_back(i);
  }
}

void Planner::latch(const CyclePlan& plan) {
  // Raw pointers, as in begin_cycle(). A latched bit pattern is the D
  // input's with the inversion applied to its value (public) or flip
  // (secret) bit.
  const std::uint8_t* const bits = plan.wire_bits;
  const Block* const fp = fp_.data();
  const Dff* const dffs = nl_.dffs.data();
  std::uint8_t* const dff_bits = dff_bits_.data();
  Block* const dff_fp = dff_fp_.data();
  for (std::size_t i = 0; i < dff_bits_.size(); ++i) {
    const Dff& d = dffs[i];
    const std::uint8_t b = bits[d.d];
    const bool pub = (b & 1) != 0;
    dff_bits[i] = d.d_invert ? static_cast<std::uint8_t>(b ^ (pub ? 2 : 4)) : b;
    if (!pub) dff_fp[i] = fp[d.d];
  }
}

}  // namespace arm2gc::core
