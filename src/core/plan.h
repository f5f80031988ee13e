// The SkipGate planner (paper §3): a deterministic classification pass over
// *public data only* that both parties run independently and that fully
// determines what the garbler and the evaluator do in a cycle.
//
//   Forward pass   classify every gate (categories i-iv) using public wire
//                  values and secret-wire fingerprints; a fingerprint is a
//                  deterministic public alias for the XOR-combination of base
//                  labels a wire carries, so "fingerprints equal (+flip)" is
//                  exactly the paper's "identical or inverted labels" test
//                  (§3.3) without touching any key material.
//   Backward pass  from the sampled outputs and flip-flop D-inputs, sweep
//                  "needed" backwards; a category-iv gate is emitted iff its
//                  output is needed. This reaches the same fixpoint as the
//                  paper's recursive label_fanout reduction and makes Alice's
//                  table list and Bob's expectations agree by construction.
//
// The result of the two passes is an explicit, flat `CyclePlan`: per-gate
// actions and emit/live bits for the whole netlist in gate order, plus one
// ascending work list of the gates the party sessions must process. Because
// the plan is a pure function of the cycle's *entry state* — the public
// values, flip parities and fingerprint-equivalence classes of the root wires
// (constants, inputs, flip-flops) — plans are cached under a canonical
// signature of that state (PlanCache). The garbled ARM core re-enters the
// same public control state on every loop iteration (fetch/decode is public —
// the paper's whole point), so repeated cycles skip classification entirely.
// A cache miss, or a hit whose re-verification finds fingerprint drift,
// classifies the whole netlist afresh in gate order.
//
// Classification cost follows the secret work, not the gate count. A gate
// with a public input (categories i and ii: plain logic simulation, most of
// the ARM core) reads and writes only the packed wire bits, plus one
// fingerprint copy when it passes a secret input through. Only gates with two
// secret inputs reach decide(), the one decision procedure that a fresh
// classification and a hit's verification walk share. Every secret wire
// also records its pass root: the wire its label is forwarded from through
// pass actions, with a saturating hop count, so the XOR-cancellation
// peephole finds its FreeXor partner in O(1) instead of walking the chain.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "crypto/aes128.h"
#include "crypto/block.h"
#include "netlist/netlist.h"

namespace arm2gc::core {

/// SkipGate = the paper's protocol; Conventional = classic sequential GC that
/// treats every wire (including constants, public inputs and known initial
/// values) as secret — the "w/o SkipGate" baseline of Tables 1 and 4.
enum class Mode : std::uint8_t { SkipGate, Conventional };

// PassC0/PassC1 cover degenerate constant-table gates in Conventional mode,
// where even a constant must stay a (secret-typed) wire: the gate forwards
// the global constant wire's label. PassSrc forwards an arbitrary earlier
// wire recorded in the plan (XOR-cancellation peephole).
enum class PlanAct : std::uint8_t {
  Public,
  PassA,
  PassB,
  FreeXor,
  Garble,
  PassC0,
  PassC1,
  PassSrc,
};

/// One cycle's complete public plan, shared verbatim by both party sessions:
/// per-gate arrays over the whole netlist plus the packed per-wire
/// public/value/flip bits. All storage is owned by the Planner (cache entry or
/// scratch) and stays valid until the next forward() call.
struct CyclePlan {
  const std::uint8_t* act = nullptr;          ///< PlanAct per gate
  const netlist::WireId* pass_src = nullptr;  ///< source wire for PassSrc gates
  const std::uint8_t* emit = nullptr;         ///< per gate: garbled table sent
  const std::uint8_t* live = nullptr;         ///< per gate: party passes process it
  /// Indices of the live gates, ascending — the party sessions' SkipGate
  /// work list (null in Conventional mode: every gate is live, iterate them
  /// all). Gates not listed need no label work and none of their outputs is
  /// read by a listed gate.
  const std::uint32_t* work = nullptr;
  std::size_t work_count = 0;
  const std::uint8_t* wire_bits = nullptr;  ///< bit0 pub, bit1 val, bit2 flip
  std::size_t num_gates = 0;
  std::size_t num_wires = 0;
  std::uint64_t emitted = 0;  ///< number of garbled tables this cycle
  bool is_final = false;
  bool sample = false;  ///< outputs are decoded this cycle

  [[nodiscard]] PlanAct action(std::size_t i) const { return static_cast<PlanAct>(act[i]); }
  [[nodiscard]] bool wire_public(netlist::WireId w) const { return (wire_bits[w] & 1) != 0; }
  [[nodiscard]] bool wire_value(netlist::WireId w) const { return (wire_bits[w] & 2) != 0; }
  [[nodiscard]] bool wire_flip(netlist::WireId w) const { return (wire_bits[w] & 4) != 0; }
};

class Planner;

/// Reusable per-party store of classified cycle plans, keyed by the entry
/// state signature (public values, flip parities, fingerprint equivalence
/// classes). The signature is deliberately coarse — it cannot see XOR-linear
/// relations *among* root fingerprints — so every hit is re-verified against
/// the current fingerprints before being served and silently reclassified on
/// drift, so caching can never change results. The signature trajectory of a
/// run depends only on the netlist and the *public* inputs, so handing the
/// same PlanCache to successive runs of one machine on fresh private inputs
/// (the traffic-serving scenario) skips classification wherever the public
/// trajectory repeats. Capacity is bounded: once full, inserting a new state
/// evicts the least-recently-used entry, so long multi-program sessions
/// cannot grow memory without limit. Not thread-safe; use one instance per
/// party (role-scoped WarmState enforces this).
class PlanCache {
 public:
  /// Capacity is derived from the per-entry footprint against this budget
  /// (at least 4 entries) on first use.
  ///
  /// `insert_on_first_sight` controls when a classified plan is copied into
  /// the cache: true (cross-run caches — reuse is known to come) stores every
  /// new state immediately; false (transient per-run caches) stores a state
  /// only on its second sighting, so runs over non-recurring states pay a
  /// cheap signature probe instead of a multi-hundred-kB entry copy.
  explicit PlanCache(std::size_t budget_bytes = 64u << 20, bool insert_on_first_sight = true);
  ~PlanCache();
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  [[nodiscard]] std::size_t entries() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  friend class Planner;

  struct Backward {
    std::vector<std::uint8_t> emit;
    std::vector<std::uint8_t> live;
    std::vector<std::uint32_t> work;  ///< live gate indices, ascending
    std::uint64_t emitted = 0;
    bool filled = false;
  };

  /// Forward + backward results for one entry-state equivalence class;
  /// CyclePlan points straight into its arrays. `touch` lists (ascending)
  /// every gate the hit-verification and backward passes must visit:
  /// non-Public actions plus Public collapses of two secret inputs
  /// (category iii) — on SkipGate workloads a small fraction of the netlist,
  /// which is the planner's hot-path leverage. `act` and `pass_src` are zero
  /// (Public, no source) at every gate outside `touch`.
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<std::uint32_t> sig;
    std::vector<std::uint8_t> act;
    std::vector<netlist::WireId> pass_src;
    std::vector<std::uint8_t> wire_bits;
    std::vector<std::uint32_t> touch;
    std::array<Backward, 2> backward;  ///< indexed by is_final

    /// Zeroes act and pass_src at the touched gates and empties `touch`.
    void clear_touched();
  };
  using LruList = std::list<Entry>;

  void ensure_sized(std::uint64_t netlist_key, std::size_t num_wires, std::size_t num_gates,
                    std::size_t roots);
  [[nodiscard]] bool admit(std::uint64_t hash);
  /// Lookup by hash + full signature; a hit is touched (moved to LRU front).
  [[nodiscard]] Entry* find(std::uint64_t hash, const std::vector<std::uint32_t>& sig);
  /// Inserts a fresh entry for the signature (admission policy permitting),
  /// evicting the least-recently-used entry when at capacity. Returns null
  /// when the admission policy declines (classify uncached instead).
  [[nodiscard]] Entry* insert(std::uint64_t hash, const std::vector<std::uint32_t>& sig);

  std::size_t budget_bytes_;
  bool insert_first_;
  std::size_t capacity_ = 0;
  std::uint64_t evictions_ = 0;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> map_;
  /// Content hash of (mode, netlist structure) this cache is keyed for; a
  /// shared cache handed to a different circuit or mode is rejected.
  std::uint64_t netlist_key_ = 0;
  /// Signature hashes seen once (second-sighting admission policy).
  std::vector<std::uint64_t> seen_;
  std::size_t seen_count_ = 0;
};

/// Empty: the planner keeps no per-cone memo. Removed once perfbench/ stops
/// naming it.
class ConeMemo {
 public:
  explicit ConeMemo(std::size_t /*budget_bytes*/ = 0) {}
  [[nodiscard]] std::uint64_t evictions() const { return 0; }
};

struct PlannerOptions {
  Mode mode = Mode::SkipGate;
  crypto::Block seed{};  ///< fingerprint stream seed (public; must match peer)
  bool cache = true;
  /// Budget for the planner-owned cache when no shared cache is supplied.
  std::size_t cache_budget_bytes = 64u << 20;
  /// Optional externally owned cache, reusable across runs (same netlist).
  PlanCache* shared_cache = nullptr;
  // No effect (the planner has no cone memo or segmentation):
  bool cone_memo = true;                           ///< removed once perfbench/ stops naming it
  std::size_t cone_memo_budget_bytes = 32u << 20;  ///< removed once perfbench/ stops naming it
  ConeMemo* shared_cone_memo = nullptr;            ///< removed once perfbench/ stops naming it
  std::size_t cone_target_gates = 512;             ///< removed once perfbench/ stops naming it
};

/// Deterministic public bookkeeping both parties run independently. Consumes
/// only public inputs; secret wires are tracked as (flip, fingerprint).
class Planner {
 public:
  Planner(const netlist::Netlist& nl, const PlannerOptions& opts);

  /// Binds root-wire planner state: constants, fixed inputs, flip-flop
  /// initial values. Draws one fingerprint per secret-bound bit, in binding
  /// order (the peer's planner consumes the identical sequence).
  void reset(const netlist::BitVec& pub_bits);

  /// Installs root states for a cycle; draws fresh fingerprints for streamed
  /// secret inputs. `pub_stream` carries this cycle's public streamed bits.
  void begin_cycle(const netlist::BitVec& pub_stream);

  /// Classifies the cycle (forward pass): served from the plan cache when
  /// the entry signature matches a previous cycle and the cached plan
  /// re-verifies, classified from scratch otherwise. Publicness/values of
  /// every wire are queryable afterwards (e.g. for the halt-wire check).
  void forward();

  [[nodiscard]] bool wire_public(netlist::WireId w) const;
  [[nodiscard]] bool wire_value(netlist::WireId w) const;

  /// Completes the plan for this cycle (backward needed/emit sweep, cached
  /// per is_final variant). Valid until the next forward().
  [[nodiscard]] CyclePlan finish(bool is_final);

  /// Latches flip-flop planner state through the current plan.
  void latch(const CyclePlan& plan);

  [[nodiscard]] std::size_t non_free_per_cycle() const { return non_free_per_cycle_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_misses_; }

 private:
  using Entry = PlanCache::Entry;

  /// Outcome of decide(): the action, its PassSrc source (0 otherwise) and
  /// the output wire's packed public/value/flip bits.
  struct Decision {
    PlanAct act;
    netlist::WireId src;
    std::uint8_t bits;
  };

  crypto::Block fresh_fp();
  /// Fingerprint of a category-iv gate output: a pure function of the
  /// cycle's fp epoch and the gate index, so the value is identical whether
  /// the gate is classified fresh or re-derived during a hit verification.
  /// Disjoint from the root fingerprint stream by construction (top
  /// plaintext bit).
  [[nodiscard]] crypto::Block derived_fp(std::size_t gate) const;
  /// Builds the canonical entry signature into sig_ and returns its 64-bit
  /// FNV-1a hash, folded in the same pass.
  std::uint64_t build_signature();
  /// Fresh forward classification of the whole netlist into `e`, in gate
  /// order (also fills e's root wire bits and touch list).
  void classify(Entry& e);
  /// The one decision procedure for a gate whose inputs are both secret
  /// (every gate in Conventional mode): category iii, the affine cases with
  /// the XOR-cancellation peephole, and category iv. `bits` and `acts` are
  /// the entry's wire bits and actions of earlier gates; fingerprints and
  /// pass roots are the current cycle's. classify() and verify_touch() both
  /// call it, so a verified hit reaches exactly a fresh classification's
  /// decisions.
  [[nodiscard]] Decision decide(const netlist::Gate& g, const std::uint8_t* bits,
                                const std::uint8_t* acts) const;
  /// Records the fingerprint and pass root of gate output `w` under `act`;
  /// a Garble output takes `garble_fp`.
  void settle(netlist::WireId w, const netlist::Gate& g, PlanAct act, netlist::WireId src,
              const crypto::Block& garble_fp);
  /// `w` forwards `src`'s label: same fingerprint, same pass root, one hop
  /// deeper.
  void link_pass(netlist::WireId w, netlist::WireId src);
  /// Walks e's touch list once, propagating fingerprints through the
  /// cached actions AND re-deciding every fingerprint-dependent
  /// classification (two secret inputs: category iii, XOR cancellation,
  /// category iv) against the current fingerprints. Returns false when any
  /// decision would differ — the cycle's XOR-linear fingerprint structure
  /// drifted from the cached state, which the equality-class keys cannot
  /// see — and the caller must reclassify. Failure is side-effect free:
  /// derived fingerprints are pure functions of (epoch, gate), so there is
  /// no stream cursor to restore and partially-written fingerprints are
  /// rewritten by the fallback classification.
  [[nodiscard]] bool verify_touch(const Entry& e);
  void backward_fill(const Entry& e, PlanCache::Backward& b, bool is_final);

  const netlist::Netlist& nl_;
  PlannerOptions opts_;

  // Root fingerprints are AES-CTR outputs consumed in strict counter order
  // (binding happens in reset()/begin_cycle()), generated a
  // pipelined batch at a time (same sequence as scalar calls). Category-iv
  // gate fingerprints do NOT come from this stream: they are derived per
  // (epoch, gate) — see derived_fp() — so classification order cannot
  // perturb them.
  static constexpr std::size_t kFpBatch = 8;
  crypto::Aes128 fp_gen_;
  std::uint64_t fp_ctr_ = 0;
  std::array<crypto::Block, kFpBatch> fp_buf_{};
  std::size_t fp_pos_ = kFpBatch;
  /// Derived-fingerprint epoch: incremented at the top of every forward()
  /// (hit or miss alike), never reset, so each cycle's category-iv
  /// fingerprints are globally fresh while being order-independent within
  /// the cycle. Both parties advance it identically (one forward per cycle).
  std::uint64_t fp_epoch_ = 0;

  // Per-wire cycle state. Packed public/value/flip bits live in the current
  // entry's wire_bits; root_bits_ holds them for the root wires, bound by
  // reset() (constants, fixed inputs) and begin_cycle() (streamed inputs,
  // flip-flops). fp_ is each wire's fingerprint, meaningful
  // on secret wires only (a public wire's slot is stale). pass_root_ and
  // pass_depth_ record, per secret wire, the wire its label is forwarded from
  // through PassA/PassB/PassSrc actions and the number of such hops,
  // saturating at one past the peephole's 64-hop cap. Root wires are their
  // own pass roots.
  std::vector<crypto::Block> fp_;
  std::vector<std::uint8_t> root_bits_;
  std::vector<netlist::WireId> pass_root_;
  std::vector<std::uint8_t> pass_depth_;
  std::vector<std::uint32_t> touch_;      ///< classify's touch-list scratch
  std::vector<crypto::Block> garble_fp_;  ///< verify_touch's batched category-iv fps
  // Flip-flop states for the next begin_cycle(), staged by reset() and
  // latch(): a flip-flop's D input may itself be a flip-flop wire.
  std::vector<std::uint8_t> dff_bits_;
  std::vector<crypto::Block> dff_fp_;
  std::vector<std::uint8_t> needed_;  ///< backward-sweep scratch
  std::size_t non_free_per_cycle_ = 0;

  // Plan cache: canonical entry-state signature -> Entry. Collisions on the
  // 64-bit hash fall back to full-signature comparison. Either externally
  // owned (shared across runs) or planner-owned.
  PlanCache* cache_ = nullptr;
  std::unique_ptr<PlanCache> owned_cache_;
  Entry scratch_;
  Entry* cur_ = nullptr;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;

  // Signature scratch: fingerprint -> root-sweep equivalence-class id,
  // epoch-stamped so the table never needs clearing (64-bit epoch: never
  // wraps within a run).
  std::vector<std::uint32_t> sig_;
  struct ClassSlot {
    crypto::Block fp{};
    std::uint32_t id = 0;
    std::uint64_t epoch = 0;
  };
  std::vector<ClassSlot> class_table_;
  std::uint64_t class_epoch_ = 0;
  std::uint64_t netlist_key_ = 0;
};

}  // namespace arm2gc::core
