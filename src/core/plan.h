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
// The result of the two passes is an explicit `CyclePlan`. Because the plan
// is a pure function of the cycle's *entry state* — the public values, flip
// parities and fingerprint-equivalence classes of the root wires (constants,
// inputs, flip-flops) — plans are cached under a canonical signature of that
// state (PlanCache). The garbled ARM core re-enters the same public control
// state on every loop iteration (fetch/decode is public — the paper's whole
// point), so repeated cycles skip classification entirely.
//
// Classification is additionally *cone-granular*: the netlist is partitioned
// once into topologically-contiguous segments (fanin cones rooted at
// constants/inputs/DFFs, cut where the fewest wires cross a frontier), the
// CyclePlan is a composition of per-segment slices, and each segment's
// forward classification is memoized under its *local* boundary-state key
// (ConeMemo). A cycle whose entry state differs from every cached
// whole-netlist state only inside a few cones re-classifies exactly those
// dirty cones — found by sweeping which roots' signature words changed and
// which upstream slices' bytes actually changed — and stitches the rest
// from the memo (or, for cones untouched since the previous cycle, adopts
// the previous slice outright). Stitched plans are byte-identical to a
// from-scratch classification: every fingerprint-dependent decision in an
// adopted cone is re-verified against the live fingerprints, and drift
// falls back to reclassifying that cone.
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

/// Planner view of one wire for the current cycle.
struct WireState {
  bool is_pub = true;
  bool val = false;       // public value
  bool flip = false;      // inversion parity of the carried secret combination
  crypto::Block fp{};     // fingerprint of the carried secret combination
};

/// One contiguous run of `count` gates starting at gate index `first_gate`,
/// with the plan data for exactly those gates. Slice storage is owned by the
/// Planner (cache entry or scratch) and stays valid until the next forward().
struct PlanSlice {
  const std::uint8_t* act = nullptr;          ///< PlanAct per gate in the slice
  const netlist::WireId* pass_src = nullptr;  ///< source wire for PassSrc gates
  const std::uint8_t* emit = nullptr;         ///< per gate: garbled table sent
  const std::uint8_t* live = nullptr;         ///< per gate: party passes process it
  /// Slice-relative indices of the live gates, ascending — the party
  /// sessions' SkipGate work list (null in Conventional mode: every gate is
  /// live, iterate the full range). Gates not listed need no label work and
  /// none of their outputs is read by a listed gate.
  const std::uint32_t* work = nullptr;
  std::uint32_t work_count = 0;
  std::uint32_t first_gate = 0;  ///< global gate index of slice start
  std::uint32_t count = 0;

  [[nodiscard]] PlanAct action(std::size_t j) const { return static_cast<PlanAct>(act[j]); }
};

/// One cycle's complete public plan, shared verbatim by both party sessions:
/// a composition of per-cone slices (in gate order, covering every gate
/// exactly once) plus the packed per-wire public/value/flip bits. All storage
/// is owned by the Planner and stays valid until the next forward() call.
struct CyclePlan {
  const PlanSlice* slices = nullptr;
  std::size_t num_slices = 0;
  const std::uint8_t* wire_bits = nullptr;  ///< bit0 pub, bit1 val, bit2 flip
  std::size_t num_gates = 0;
  std::size_t num_wires = 0;
  std::uint64_t emitted = 0;  ///< number of garbled tables this cycle
  bool is_final = false;
  bool sample = false;  ///< outputs are decoded this cycle

  [[nodiscard]] bool wire_public(netlist::WireId w) const { return (wire_bits[w] & 1) != 0; }
  [[nodiscard]] bool wire_value(netlist::WireId w) const { return (wire_bits[w] & 2) != 0; }
  [[nodiscard]] bool wire_flip(netlist::WireId w) const { return (wire_bits[w] & 4) != 0; }
};

/// One fanin-cone segment of the netlist: the contiguous gate range
/// [first_gate, first_gate+count) plus the external wires its gates read
/// (roots and earlier segments' outputs), ascending — the cone's local
/// key domain.
struct PlanSegment {
  std::uint32_t first_gate = 0;
  std::uint32_t count = 0;
  std::vector<netlist::WireId> boundary;
  /// boundary[0..root_count) are root wires (constants/inputs/DFF outputs);
  /// the rest are earlier segments' gate outputs.
  std::uint32_t root_count = 0;
  /// Earlier segments whose gate outputs this segment reads (deduplicated,
  /// ascending) — the dirty-cascade edges.
  std::vector<std::uint32_t> deps;
};

/// Deterministic one-time partition of a netlist's gates into segments. Both
/// parties compute it independently from public data, so it is part of the
/// shared plan contract (its key is folded into every memo key). Cuts are
/// placed near multiples of `target_gates` at fanout frontiers — positions
/// the fewest live wires cross — so boundary keys stay small.
struct PlanLayout {
  std::vector<PlanSegment> segments;
  std::size_t max_boundary = 0;     ///< largest boundary size over all segments
  std::size_t total_boundary = 0;   ///< summed boundary sizes (key cost)
  std::size_t unique_boundary = 0;  ///< distinct wires appearing in any boundary
  std::uint64_t key = 0;            ///< netlist key + cut positions

  static PlanLayout build(const netlist::Netlist& nl, std::size_t target_gates,
                          std::uint64_t netlist_key);
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
/// party (the threaded driver enforces this).
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
    /// Slice-relative indices of live gates, concatenated per segment
    /// (offsets in work_off) — the sessions' per-slice work lists.
    std::vector<std::uint32_t> work;
    std::vector<std::uint32_t> work_off;
    std::uint64_t emitted = 0;
    bool filled = false;
  };

  /// Forward + backward results for one entry-state equivalence class. The
  /// flat whole-netlist arrays double as the stitch target for cone-granular
  /// classification; CyclePlan slices point into them at segment offsets.
  /// `touch` lists (ascending) every gate the hit-verification and backward
  /// passes must visit: non-Public actions plus Public collapses of two
  /// secret inputs (category iii) — on SkipGate workloads a small fraction
  /// of the netlist, which is the planner's hot-path leverage.
  struct Entry {
    std::uint64_t hash = 0;
    std::vector<std::uint32_t> sig;
    std::vector<std::uint8_t> act;
    std::vector<netlist::WireId> pass_src;
    std::vector<std::uint8_t> wire_bits;
    std::vector<std::uint32_t> touch;
    std::vector<std::uint32_t> touch_off;  ///< per-segment offsets into touch
    std::array<Backward, 2> backward;      ///< indexed by is_final
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

/// Reusable per-party store of per-cone forward classifications, keyed by
/// the cone's *local* entry state: the root signature words of its boundary
/// roots plus the packed public/value/flip bits of its boundary internals.
/// The key deliberately carries no internal fingerprint structure — that is
/// discrimination, not soundness: every adopted cone's fingerprint-dependent
/// decisions are re-verified against the live fingerprints (key-equal
/// candidates are walked until one verifies; none verifying reclassifies),
/// and the common all-distinct fingerprint pattern collapses onto one key.
/// Entries hold only the segment's slice of the plan (actions, pass
/// sources, packed output wire bits, touch list), so they are small and hit
/// across *similar* cycles — entry states that agree inside the cone but
/// differ elsewhere — where the whole-netlist PlanCache misses. Bounded
/// capacity with LRU eviction across all segments. Not thread-safe; one per
/// party.
class ConeMemo {
 public:
  explicit ConeMemo(std::size_t budget_bytes = 32u << 20);
  ~ConeMemo();
  ConeMemo(const ConeMemo&) = delete;
  ConeMemo& operator=(const ConeMemo&) = delete;

  [[nodiscard]] std::size_t entries() const { return lru_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  friend class Planner;

  struct Entry {
    std::uint32_t segment = 0;
    std::uint64_t hash = 0;
    std::uint64_t slice_id = 0;      ///< content identity (never reused)
    std::vector<std::uint64_t> key;  ///< exact local boundary-state key
    std::vector<std::uint8_t> act;
    std::vector<netlist::WireId> pass_src;
    std::vector<std::uint8_t> out_bits;  ///< packed wire bits of the cone's outputs
    std::vector<std::uint32_t> touch;    ///< absolute gate indices to visit
  };
  using LruList = std::list<Entry>;

  void ensure_sized(std::uint64_t layout_key, const PlanLayout& layout);
  /// Read-only candidate walk with no LRU motion: returns the first
  /// key-equal candidate at index >= *after (advancing *after past it), or
  /// nullptr. Multiple entries may share a key: drifted fingerprint
  /// structure makes key-equal states classify differently, and the caller
  /// walks candidates until one verifies. A cycle probes every segment
  /// before it commits any LRU motion (touch_candidates) or insert.
  [[nodiscard]] const Entry* peek(std::uint32_t segment, std::uint64_t hash,
                                  const std::vector<std::uint64_t>& key,
                                  std::size_t* after) const;
  /// Commits the LRU effect of `probed` peek() probes for this key: splices
  /// the first `probed` key-equal candidates to the front, in probe order.
  /// Candidates evicted since the probe are silently skipped.
  void touch_candidates(std::uint32_t segment, std::uint64_t hash,
                        const std::vector<std::uint64_t>& key, std::size_t probed);
  [[nodiscard]] Entry* insert(std::uint32_t segment, std::uint64_t hash,
                              const std::vector<std::uint64_t>& key);

  std::size_t budget_bytes_;
  std::size_t capacity_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t next_slice_id_ = 0;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::vector<LruList::iterator>> map_;
  /// Layout content hash (netlist + mode + cut positions) this memo is keyed
  /// for; a shared memo handed to a different circuit/mode/layout is rejected.
  std::uint64_t layout_key_ = 0;
};

struct PlannerOptions {
  Mode mode = Mode::SkipGate;
  crypto::Block seed{};  ///< fingerprint stream seed (public; must match peer)
  bool cache = true;
  /// Budget for the planner-owned cache when no shared cache is supplied.
  std::size_t cache_budget_bytes = 64u << 20;
  /// Optional externally owned cache, reusable across runs (same netlist).
  PlanCache* shared_cache = nullptr;
  /// Cone-granular incremental classification: memoize per-segment forward
  /// results so whole-netlist cache misses re-classify only dirty cones.
  bool cone_memo = true;
  /// Budget for the planner-owned cone memo when none is supplied.
  std::size_t cone_memo_budget_bytes = 32u << 20;
  /// Optional externally owned cone memo, reusable across runs.
  ConeMemo* shared_cone_memo = nullptr;
  /// Segmentation granularity (gates per cone, approximate). Both parties
  /// must agree (folded into the layout key). 0 = one segment per netlist.
  std::size_t cone_target_gates = 512;
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

  /// Classifies the cycle (forward pass), via the plan cache when the entry
  /// signature matches a previous cycle and via the per-cone memo otherwise.
  /// Publicness/values of every wire are queryable afterwards (e.g. for the
  /// halt-wire check).
  void forward();

  [[nodiscard]] bool wire_public(netlist::WireId w) const;
  [[nodiscard]] bool wire_value(netlist::WireId w) const;

  /// Completes the plan for this cycle (backward needed/emit sweep, cached
  /// per is_final variant and memoized by slice composition). Valid until
  /// the next forward().
  [[nodiscard]] CyclePlan finish(bool is_final);

  /// Latches flip-flop planner state through the current plan.
  void latch(const CyclePlan& plan);

  [[nodiscard]] std::size_t non_free_per_cycle() const { return non_free_per_cycle_; }
  [[nodiscard]] std::uint64_t cache_hits() const { return cache_hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const { return cache_misses_; }
  /// Cone-level counters: over segments processed on whole-netlist cache
  /// misses only (a whole-netlist hit never consults the memo).
  [[nodiscard]] std::uint64_t cone_hits() const { return cone_hits_; }
  [[nodiscard]] std::uint64_t cone_misses() const { return cone_misses_; }
  [[nodiscard]] const PlanLayout& layout() const { return layout_; }

 private:
  using Entry = PlanCache::Entry;

  crypto::Block fresh_fp();
  /// Fingerprint of a category-iv gate output: a pure function of the
  /// cycle's fp epoch and the gate index, so the value is identical whether
  /// the gate is classified fresh, adopted from a cached slice, or
  /// re-derived during a hit verification. Disjoint from the root
  /// fingerprint stream by construction (top plaintext bit).
  [[nodiscard]] crypto::Block derived_fp(std::size_t gate) const;
  void bind_secret_fp(WireState& s);
  void build_signature();
  /// Gathers a dirty cone's exact memo key into `out`.
  void build_segment_key(std::size_t si, const PlanSegment& seg,
                         std::vector<std::uint64_t>& out) const;
  /// Forward-classifies the cycle into `e` — whole netlist, or stitched
  /// cone by cone when cone memoization is enabled: clean cones (no root
  /// signature word changed, no upstream slice changed) adopt the previous
  /// cycle's slice outright; dirty cones consult the memo by local key;
  /// memo misses reclassify. Every segment is probed (ascending) before
  /// the memo's LRU motion, inserts and counters are committed (ascending).
  void build_plan(Entry& e);
  /// Fresh forward classification of one segment's gates into `e`; touched
  /// gate indices are appended to `touch` (per-segment scratch).
  void classify_segment(Entry& e, const PlanSegment& seg, std::vector<std::uint32_t>& touch);
  /// Copies a cached cone slice (memo entry or previous-cycle snapshot)
  /// into `e` and verifies it (below); false = drift, caller reclassifies
  /// the segment (e's slice is simply overwritten). On success the slice's
  /// touch indices are appended to `touch`.
  [[nodiscard]] bool adopt_segment(Entry& e, const PlanSegment& seg, const std::uint8_t* act,
                                   const netlist::WireId* pass_src,
                                   const std::uint8_t* out_bits, const std::uint32_t* touch,
                                   std::size_t touch_count, std::vector<std::uint32_t>& out_touch);
  /// Walks a touch (sub-)list once, propagating fingerprints through the
  /// cached actions AND verifying every fingerprint-dependent
  /// classification decision (category iii, XOR cancellation, category iv)
  /// against the current fingerprints. Returns false when any decision would
  /// differ — the cycle's XOR-linear fingerprint structure drifted from the
  /// cached state, which the equality-class keys cannot see — and the
  /// caller must reclassify. Failure is side-effect free: derived
  /// fingerprints are pure functions of (epoch, gate), so there is no
  /// stream cursor to restore and partially-written fingerprints are
  /// rewritten by the fallback classification.
  [[nodiscard]] bool verify_touch(const Entry& e, const std::uint32_t* touch,
                                  std::size_t touch_count);
  void backward_fill(const Entry& e, PlanCache::Backward& b, bool is_final);

  const netlist::Netlist& nl_;
  PlannerOptions opts_;
  PlanLayout layout_;

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
  // entry's wire_bits (adopted slices memcpy them wholesale); st_ carries
  // fingerprints, plus valid bits only for root wires (gate-range bits in
  // st_ are unspecified — always read bits from the entry).
  std::vector<WireState> st_;
  std::vector<WireState> fixed_st_;
  std::vector<WireState> dff_st_;
  WireState const_st_[2];
  std::vector<std::uint8_t> needed_;  ///< backward-sweep scratch
  std::size_t non_free_per_cycle_ = 0;

  // Plan cache: canonical entry-state signature -> Entry. Collisions on the
  // 64-bit hash fall back to full-signature comparison. Either externally
  // owned (shared across runs) or planner-owned.
  PlanCache* cache_ = nullptr;
  std::unique_ptr<PlanCache> owned_cache_;
  ConeMemo* memo_ = nullptr;
  std::unique_ptr<ConeMemo> owned_memo_;
  Entry scratch_;
  Entry* cur_ = nullptr;
  /// Packed wire bits of the entry being built/served this cycle (the
  /// authoritative public/value/flip store; st_ gate-range bits are stale).
  const std::uint8_t* cur_bits_ = nullptr;
  std::vector<PlanSlice> slices_;  ///< rebuilt by finish(); aliases cur_
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cone_hits_ = 0;
  std::uint64_t cone_misses_ = 0;

  // Previous stitched cycle's plan snapshot plus its root signature — the
  // dirty-region sweep's reference point. A cone is clean when none of its
  // boundary roots' signature words changed against prev_sig_ and none of
  // its producer segments' slices changed this cycle; clean cones adopt the
  // snapshot slice with no key build or memo lookup (verification still
  // runs — fingerprint drift falls back to the memo / reclassify).
  bool prev_ok_ = false;
  std::vector<std::uint32_t> prev_sig_;
  std::vector<std::uint8_t> prev_act_;
  std::vector<netlist::WireId> prev_pass_src_;
  std::vector<std::uint8_t> prev_bits_;
  std::vector<std::uint32_t> prev_touch_;
  std::vector<std::uint32_t> prev_touch_off_;
  std::vector<std::uint8_t> seg_changed_;  ///< per segment: slice != snapshot
  std::vector<std::uint8_t> seg_dirty_;    ///< per-cycle dirty scratch
  std::vector<std::uint64_t> slice_ids_;   ///< per segment: current content id
  bool stitched_ = false;  ///< cur_ was stitched this cycle (slice ids valid)
  /// CSR reverse index: root wire -> segments with it on their boundary.
  std::vector<std::uint32_t> root_consumer_offsets_;
  std::vector<std::uint32_t> root_consumers_;

  // Backward-pass memo for stitched cycles, keyed by the exact slice-id
  // composition plus is_final and the root wires the sweep reads directly:
  // loop-periodic cycles whose stitched plan recurs skip the needed/emit
  // sweep. (Whole-netlist cache entries carry their own backward variants;
  // this covers the cycles that cache misses.) Planner-owned, LRU-bounded.
  struct BackwardSlot {
    std::uint64_t hash = 0;
    std::vector<std::uint64_t> key;
    PlanCache::Backward b;
  };
  using BackwardList = std::list<BackwardSlot>;
  BackwardList backward_lru_;
  std::unordered_map<std::uint64_t, std::vector<BackwardList::iterator>> backward_map_;
  std::size_t backward_capacity_ = 0;
  std::vector<std::uint64_t> backward_key_;
  /// Root wires the backward sweep reads directly (output ports / DFF
  /// D-inputs below the gate range) — their packed bits join the key, since
  /// slice ids only pin gate-range content.
  std::vector<netlist::WireId> backward_root_wires_;

  // Per-segment outcome of a stitched cycle's probe phase, read back by its
  // commit phase (memo LRU motion, inserts, slice ids, counters).
  enum class SegResult : std::uint8_t { CleanAdopt, MemoAdopt, Classified };
  struct SegProbe {
    std::vector<std::uint64_t> key;  ///< local memo key (dirty cones only)
    std::uint64_t hash = 0;
    std::uint32_t probes = 0;    ///< memo candidates probed
    std::uint64_t adopt_id = 0;  ///< slice id of the adopted memo entry
    SegResult result = SegResult::Classified;
  };
  std::vector<SegProbe> seg_probe_;

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
