#include "core/plan.h"

#include <algorithm>
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

constexpr WireId kNoWire = 0xffffffffu;

WireState pub_state(bool v) {
  WireState s;
  s.is_pub = true;
  s.val = v;
  return s;
}

std::uint8_t pack_bits(const WireState& s) {
  return static_cast<std::uint8_t>((s.is_pub ? 1u : 0u) | (s.val ? 2u : 0u) |
                                   (s.flip ? 4u : 0u));
}

std::uint64_t fnv1a64(const std::vector<std::uint32_t>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint32_t x : v) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

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
  std::uint64_t h = 1469598103934665603ull;
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

/// Folds a unary residual function of a surviving secret input into a plan
/// action (constant output, wire, or inverter — paper Figures 1 and 2).
void classify_unary(netlist::UnaryTable u, const WireState& in, bool pass_is_a, PlanAct& act,
                    WireState& out) {
  if (netlist::unary_is_const(u)) {
    act = PlanAct::Public;
    out = pub_state(u == netlist::kUnOne);
    return;
  }
  act = pass_is_a ? PlanAct::PassA : PlanAct::PassB;
  out = in;
  if (u == netlist::kUnNot) out.flip = !out.flip;
}

/// Follows pass-style actions back to the wire whose label a wire carries.
WireId resolve_pass(const Netlist& nl, const std::uint8_t* acts, const WireId* pass_srcs,
                    WireId w) {
  const WireId first_gate = nl.first_gate_wire();
  for (int hops = 0; hops < 64 && w >= first_gate; ++hops) {
    const std::size_t gi = w - first_gate;
    switch (static_cast<PlanAct>(acts[gi])) {
      case PlanAct::PassA: w = nl.gates[gi].a; break;
      case PlanAct::PassB: w = nl.gates[gi].b; break;
      case PlanAct::PassSrc: w = pass_srcs[gi]; break;
      default: return w;
    }
  }
  return w;
}

/// For a free XOR of wires (wa, wb): if either side resolves to a FreeXor
/// gate one of whose operands' fingerprint equals the result fingerprint,
/// the other operand cancels and the result is a plain wire. Returns the
/// surviving source wire or kNoWire. `is_pub` reads the entry's wire bits,
/// so classification and hit verification share one decision procedure.
template <typename IsPubFn>
WireId find_cancellation(const Netlist& nl, const std::uint8_t* acts, const WireId* pass_srcs,
                         const std::vector<WireState>& st, IsPubFn&& is_pub, WireId wa,
                         WireId wb, const Block& out_fp) {
  const WireId first_gate = nl.first_gate_wire();
  for (const WireId side : {wa, wb}) {
    const WireId r = resolve_pass(nl, acts, pass_srcs, side);
    if (r < first_gate) continue;
    const std::size_t gi = r - first_gate;
    if (static_cast<PlanAct>(acts[gi]) != PlanAct::FreeXor) continue;
    const Gate& g2 = nl.gates[gi];
    if (!is_pub(g2.a) && st[g2.a].fp == out_fp) return g2.a;
    if (!is_pub(g2.b) && st[g2.b].fp == out_fp) return g2.b;
  }
  return kNoWire;
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
    const Entry& victim = lru_.back();
    const auto vit = map_.find(victim.hash);
    for (auto i = vit->second.begin(); i != vit->second.end(); ++i) {
      if (&**i == &victim) {
        vit->second.erase(i);
        break;
      }
    }
    if (vit->second.empty()) map_.erase(vit);
    lru_.pop_back();
    ++evictions_;
  }
  lru_.emplace_front();
  Entry& e = lru_.front();
  e.hash = hash;
  e.sig = sig;
  map_[hash].push_back(lru_.begin());
  return &e;
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
  st_.resize(nw);
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
  // Top plaintext bit set: disjoint from the root stream's {counter, 0}
  // plaintexts, so derived and root fingerprints never collide and are
  // jointly pseudorandom under the one keyed permutation.
  return fp_gen_.encrypt(Block{static_cast<std::uint64_t>(gate), (1ull << 63) | fp_epoch_});
}

void Planner::bind_secret_fp(WireState& s) {
  s.is_pub = false;
  s.val = false;
  s.flip = false;
  s.fp = fresh_fp();
}

void Planner::reset(const netlist::BitVec& pub_bits) {
  const auto pub_bit = [&](std::uint32_t idx, const char* what) {
    if (idx >= pub_bits.size()) {
      throw std::out_of_range(std::string("skipgate: missing ") + what + " bit " +
                              std::to_string(idx));
    }
    return pub_bits[idx];
  };

  // Constants. Conventional GC treats even constants as secret wires; the
  // planner tracks them with fingerprints like any other secret.
  if (opts_.mode == Mode::SkipGate) {
    const_st_[0] = pub_state(false);
    const_st_[1] = pub_state(true);
  } else {
    bind_secret_fp(const_st_[0]);
    bind_secret_fp(const_st_[1]);
  }

  // Fixed primary inputs: public ones carry their value (SkipGate mode);
  // secret ones carry a fresh fingerprint. Values of secret inputs never
  // reach the planner — it consumes public data only.
  fixed_st_.assign(nl_.inputs.size(), WireState{});
  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    if (in.streamed) continue;
    if (in.owner == Owner::Public && opts_.mode == Mode::SkipGate) {
      fixed_st_[i] = pub_state(pub_bit(in.bit_index, "fixed input"));
    } else {
      bind_secret_fp(fixed_st_[i]);
    }
  }

  // Flip-flop initial values.
  dff_st_.assign(nl_.dffs.size(), WireState{});
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    const bool const_init = d.init == Dff::Init::Zero || d.init == Dff::Init::One;
    if (const_init && opts_.mode == Mode::SkipGate) {
      dff_st_[i] = pub_state(d.init == Dff::Init::One);
    } else {
      bind_secret_fp(dff_st_[i]);
    }
  }

  cur_ = nullptr;
}

void Planner::begin_cycle(const netlist::BitVec& pub_stream) {
  st_[netlist::kConst0] = const_st_[0];
  st_[netlist::kConst1] = const_st_[1];

  for (std::size_t i = 0; i < nl_.inputs.size(); ++i) {
    const netlist::Input& in = nl_.inputs[i];
    const WireId w = nl_.input_wire(i);
    if (!in.streamed) {
      st_[w] = fixed_st_[i];
      continue;
    }
    if (in.owner == Owner::Public && opts_.mode == Mode::SkipGate) {
      if (in.bit_index >= pub_stream.size()) {
        throw std::out_of_range("skipgate: missing streamed input bit " +
                                std::to_string(in.bit_index));
      }
      st_[w] = pub_state(pub_stream[in.bit_index]);
    } else {
      bind_secret_fp(st_[w]);
    }
  }

  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    st_[nl_.dff_wire(i)] = dff_st_[i];
  }
}

void Planner::build_signature() {
  // Class ids are first-occurrence over the root sweep — the canonical
  // whole-netlist entry signature.
  const WireId first_gate = nl_.first_gate_wire();
  sig_.clear();
  sig_.reserve(first_gate);
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
  for (WireId w = 0; w < first_gate; ++w) {
    const WireState& s = st_[w];
    if (s.is_pub) {
      sig_.push_back(1u | (s.val ? 2u : 0u));
    } else {
      sig_.push_back((class_of(s.fp) << 2) | (s.flip ? 2u : 0u));
    }
  }
}

void Planner::forward() {
  // Every cycle gets a fresh derived-fingerprint epoch no matter which path
  // serves it (hit, miss, fallback), so category-iv fingerprints are pure
  // functions of (epoch, gate) — identical with and without the cache.
  ++fp_epoch_;
  Entry* e = &scratch_;
  if (cache_ != nullptr) {
    build_signature();
    const std::uint64_t h = fnv1a64(sig_);
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
  const std::size_t ng = nl_.gates.size();
  e.act.resize(ng);
  e.pass_src.resize(ng);
  e.wire_bits.resize(nl_.num_wires());
  e.touch.clear();
  e.backward[0].filled = false;
  e.backward[1].filled = false;

  const WireId first_gate = nl_.first_gate_wire();
  for (WireId w = 0; w < first_gate; ++w) e.wire_bits[w] = pack_bits(st_[w]);

  const bool skipgate = opts_.mode == Mode::SkipGate;
  const auto wire_pub = [&](WireId w) { return (e.wire_bits[w] & 1) != 0; };
  const auto state_of = [&](WireId w) {
    const std::uint8_t b = e.wire_bits[w];
    WireState s;
    s.is_pub = (b & 1) != 0;
    s.val = (b & 2) != 0;
    s.flip = (b & 4) != 0;
    s.fp = st_[w].fp;
    return s;
  };

  for (std::size_t i = 0; i < ng; ++i) {
    const Gate g = nl_.gates[i];
    const WireState a = state_of(g.a);
    const WireState b = state_of(g.b);
    WireState out;
    PlanAct act;
    WireId src = 0;

    if (skipgate && a.is_pub && b.is_pub) {  // category i
      act = PlanAct::Public;
      out = pub_state(netlist::tt_eval(g.tt, a.val, b.val));
    } else if (skipgate && a.is_pub) {  // category ii
      classify_unary(netlist::tt_restrict_a(g.tt, a.val), b, /*pass_is_a=*/false, act, out);
    } else if (skipgate && b.is_pub) {  // category ii
      classify_unary(netlist::tt_restrict_b(g.tt, b.val), a, /*pass_is_a=*/true, act, out);
    } else if (skipgate && a.fp == b.fp) {  // category iii
      classify_unary(netlist::tt_restrict_diag(g.tt, a.flip != b.flip), a, /*pass_is_a=*/true,
                     act, out);
    } else if (netlist::tt_is_affine(g.tt)) {  // free under free-XOR
      if (g.tt == netlist::kTtZero || g.tt == netlist::kTtOne) {
        const bool one = g.tt == netlist::kTtOne;
        if (skipgate) {
          act = PlanAct::Public;
          out = pub_state(one);
        } else {
          act = one ? PlanAct::PassC1 : PlanAct::PassC0;
          out = state_of(one ? netlist::kConst1 : netlist::kConst0);
        }
      } else if (netlist::tt_ignores_a(g.tt)) {
        classify_unary(netlist::tt_restrict_a(g.tt, false), b, /*pass_is_a=*/false, act, out);
      } else if (netlist::tt_ignores_b(g.tt)) {
        classify_unary(netlist::tt_restrict_b(g.tt, false), a, /*pass_is_a=*/true, act, out);
      } else {  // XOR / XNOR of two live secrets
        act = PlanAct::FreeXor;
        out.is_pub = false;
        out.fp = a.fp ^ b.fp;
        out.flip = (a.flip != b.flip) != (g.tt == netlist::kTtXnor);
        // XOR-cancellation peephole: the 1-AND multiplexer f ^ (s & (t^f))
        // with a public select degenerates to f ^ (t ^ f) == t. Detecting
        // that the result carries exactly an existing wire's label (the
        // paper's "the MUX acts as a wire") releases the unselected side's
        // label from the needed-cone, so its producing gates are skipped.
        if (skipgate) {
          const WireId cancel = find_cancellation(nl_, e.act.data(), e.pass_src.data(), st_,
                                                  wire_pub, g.a, g.b, out.fp);
          if (cancel != kNoWire) {
            act = PlanAct::PassSrc;
            src = cancel;
          }
        }
      }
    } else {  // category iv
      act = PlanAct::Garble;
      out.is_pub = false;
      out.fp = derived_fp(i);
      out.flip = false;
    }
    st_[first_gate + i].fp = out.fp;
    e.act[i] = static_cast<std::uint8_t>(act);
    e.pass_src[i] = src;
    e.wire_bits[first_gate + i] = pack_bits(out);
    // The touch list drives hit verification and the backward sweep: every
    // non-Public action plus every fingerprint-dependent Public collapse
    // (two secret inputs, category iii / constant-affine).
    if (act != PlanAct::Public || (!a.is_pub && !b.is_pub)) {
      e.touch.push_back(static_cast<std::uint32_t>(i));
    }
  }
}

bool Planner::verify_touch(const Entry& e) {
  // Fingerprints are cycle state even on a hit: category-iv gates re-derive
  // the same (epoch, gate)-addressed fingerprint a fresh classification
  // would produce and derived fingerprints follow the cached actions, so
  // the planner's state after a verified hit is identical to a fresh
  // classification — and a failed verification needs no stream rollback.
  // Untouched gates are Public with a public input: no fingerprint exists,
  // no decision can drift.
  const WireId first_gate = nl_.first_gate_wire();
  const bool skipgate = opts_.mode == Mode::SkipGate;
  const auto wire_pub = [&](WireId w) { return (e.wire_bits[w] & 1) != 0; };
  const auto wire_flip = [&](WireId w) { return (e.wire_bits[w] & 4) != 0; };

  bool ok = true;
  for (std::size_t t = 0; t < e.touch.size() && ok; ++t) {
    const std::size_t i = e.touch[t];
    const WireId w = first_gate + static_cast<WireId>(i);
    const Gate g = nl_.gates[i];
    const PlanAct act = static_cast<PlanAct>(e.act[i]);

    // Re-derive the expected action for every gate whose classification can
    // depend on a fingerprint comparison — both secret inputs in SkipGate
    // mode — mirroring the forward pass branch for branch (the public/flip
    // structure is pinned by the signature/key; only fingerprints can
    // drift). Conventional mode makes no fingerprint comparison.
    if (skipgate && !wire_pub(g.a) && !wire_pub(g.b)) {
      PlanAct expect;
      WireId expect_src = kNoWire;
      if (st_[g.a].fp == st_[g.b].fp) {  // category iii
        const netlist::UnaryTable u =
            netlist::tt_restrict_diag(g.tt, wire_flip(g.a) != wire_flip(g.b));
        expect = netlist::unary_is_const(u) ? PlanAct::Public : PlanAct::PassA;
      } else if (netlist::tt_is_affine(g.tt)) {
        if (g.tt == netlist::kTtZero || g.tt == netlist::kTtOne) {
          expect = PlanAct::Public;
        } else if (netlist::tt_ignores_a(g.tt)) {
          expect = PlanAct::PassB;  // non-const unary of b
        } else if (netlist::tt_ignores_b(g.tt)) {
          expect = PlanAct::PassA;  // non-const unary of a
        } else {  // XOR of two live secrets
          const Block out_fp = st_[g.a].fp ^ st_[g.b].fp;
          const WireId src = find_cancellation(nl_, e.act.data(), e.pass_src.data(), st_,
                                               wire_pub, g.a, g.b, out_fp);
          expect = src == kNoWire ? PlanAct::FreeXor : PlanAct::PassSrc;
          expect_src = src;
        }
      } else {  // category iv
        expect = PlanAct::Garble;
      }
      ok = act == expect && (expect != PlanAct::PassSrc || e.pass_src[i] == expect_src);
      if (!ok) break;
    }

    switch (act) {
      case PlanAct::Public: break;
      case PlanAct::PassA: st_[w].fp = st_[g.a].fp; break;
      case PlanAct::PassB: st_[w].fp = st_[g.b].fp; break;
      case PlanAct::PassC0: st_[w].fp = st_[netlist::kConst0].fp; break;
      case PlanAct::PassC1: st_[w].fp = st_[netlist::kConst1].fp; break;
      case PlanAct::PassSrc:
      case PlanAct::FreeXor: st_[w].fp = st_[g.a].fp ^ st_[g.b].fp; break;
      case PlanAct::Garble: st_[w].fp = derived_fp(i); break;
    }
  }
  return ok;
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
  for (std::size_t i = 0; i < nl_.dffs.size(); ++i) {
    const Dff& d = nl_.dffs[i];
    if (plan.wire_public(d.d)) {
      dff_st_[i] = pub_state(plan.wire_value(d.d) != d.d_invert);
    } else {
      dff_st_[i].is_pub = false;
      dff_st_[i].val = false;
      dff_st_[i].flip = plan.wire_flip(d.d) != d.d_invert;
      dff_st_[i].fp = st_[d.d].fp;
    }
  }
}

}  // namespace arm2gc::core
