#pragma once
/// \file container.hpp
/// \brief Atom Containers (ACs) — the partially reconfigurable slots that
/// hold Atom instances at run time (paper §5, Fig 6).
///
/// Each AC holds at most one Atom. A rotation replaces the AC's content; the
/// old Atom becomes unusable the moment the rotation starts, the new one
/// usable when the bitstream transfer completes. ACs have a task *owner*
/// for replacement policy only — any task may execute SIs on any loaded
/// Atom (Fig 6, T3: Task B's SI runs on containers that 'belong' to Task A).
///
/// With fault injection (hw/fault.hpp) a transfer can end Failed/Poisoned:
/// the container then ends up empty, enters a backoff window
/// (`blocked_until`) during which no new rotation targets it, and after too
/// many consecutive failures is quarantined permanently — selection plans
/// around the reduced AC set from then on.

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "rispp/atom/molecule.hpp"
#include "rispp/isa/atom_catalog.hpp"

namespace rispp::rt {

using Cycle = std::uint64_t;
constexpr int kNoTask = -1;

struct VictimCandidate;  // policy.hpp

struct AtomContainer {
  unsigned id = 0;
  /// Atom kind currently usable in this container (catalog index).
  std::optional<std::size_t> atom;
  /// Atom kind being rotated in; usable from ready_at onwards.
  std::optional<std::size_t> loading;
  Cycle ready_at = 0;
  int owner_task = kNoTask;
  Cycle last_used = 0;
  /// Consecutive failed loads (reset by any successful load).
  unsigned fail_streak = 0;
  /// Retry backoff: no rotation may target this container before this cycle.
  Cycle blocked_until = 0;
  /// Permanently out of service after fail_streak exceeded the retry budget.
  bool quarantined = false;

  bool busy(Cycle now) const { return loading.has_value() && now < ready_at; }
  /// Quarantined, or in a backoff window saturated at the largest Cycle:
  /// such a window never ends, so it is no wakeup source either.
  bool blocked_for_good() const {
    return quarantined || blocked_until == std::numeric_limits<Cycle>::max();
  }
  bool blocked(Cycle now) const {
    return blocked_for_good() || now < blocked_until;
  }
};

/// The file of all ACs plus aggregate views the selection logic needs.
class ContainerFile {
 public:
  ContainerFile(unsigned count, const isa::AtomCatalog& catalog);

  unsigned size() const { return static_cast<unsigned>(containers_.size()); }
  const AtomContainer& at(unsigned i) const;

  /// Containers still in service (not quarantined) — the AC budget the
  /// selection plan may count on.
  unsigned usable_count() const;

  /// Promote finished rotations (loading → atom). Must be called with a
  /// monotonically non-decreasing `now`. Failed rotations must be retired
  /// via on_rotation_failed *before* the refresh that would promote them.
  /// O(1) when no rotation is in flight (the steady-state execute path).
  void refresh(Cycle now);

  /// Atom instances usable *right now* (completed, not being overwritten).
  atom::Molecule available_atoms(Cycle now) const;

  /// The available-atom multiset as of the last refresh(), maintained
  /// incrementally (no recompute, no allocation). Identical to
  /// available_atoms(now) right after refresh(now) — which is how the
  /// execute hot path calls it; between refreshes it lags transfers that
  /// finished but were not promoted yet. Differential-tested against the
  /// recompute in rt_container_test.
  const atom::Molecule& usable_atoms() const { return usable_; }

  /// Total bitstream slices of the atoms loaded or loading — the leakage
  /// model's input. Maintained incrementally on start/abort/fail (promotion
  /// keeps the kind, so refresh does not touch it); O(1) instead of the
  /// seed's per-call walk with a catalog lookup per container.
  std::uint64_t loaded_slices() const { return loaded_slices_; }

  /// Bumped whenever the usable-atom multiset may have changed (a promotion,
  /// a started/aborted/failed rotation). Callers caching anything derived
  /// from usable_atoms() — the manager's fastest-molecule memo — key their
  /// cache on this.
  std::uint64_t usable_generation() const { return usable_generation_; }

  /// Atom instances the file is committed to after all in-flight rotations
  /// finish — what the selection logic must diff its target against.
  /// Maintained incrementally by start_rotation/abort_rotation, so reading
  /// it inside the kernel's per-step issue loop is O(1).
  const atom::Molecule& committed_atoms() const { return committed_; }

  /// Begin a rotation: container `c` will hold `atom_kind` at `ready_at`.
  void start_rotation(unsigned c, std::size_t atom_kind, Cycle ready_at,
                      int owner_task);

  /// Abort a rotation whose transfer was cancelled before it started: the
  /// container becomes empty (its previous content was already given up
  /// when the rotation was issued).
  void abort_rotation(unsigned c);

  /// Retire a rotation whose transfer ended Failed/Poisoned at `failed_at`:
  /// the container ends empty (nothing usable landed), its fail streak
  /// grows, and it either enters a capped-exponential backoff window
  /// (`retry_backoff_cycles << min(streak-1, 16)`, saturating at the
  /// largest Cycle rather than wrapping; a saturated window never ends) or
  /// — when the streak exceeds `max_retries` — is quarantined for good.
  /// Returns true when this failure quarantined the container. Must be
  /// called before the refresh() that would otherwise promote the poisoned
  /// load.
  bool on_rotation_failed(unsigned c, std::size_t atom_kind, Cycle failed_at,
                          unsigned max_retries, Cycle retry_backoff_cycles);

  /// Record an SI execution touching the given atom kinds (LRU update).
  void touch(const atom::Molecule& used, Cycle now);

  /// True when some container's backoff window ended in (after, upto] — the
  /// container became targetable again, which dirties a cached plan's gate
  /// decisions the same way a completed rotation does.
  bool unblocked_in(Cycle after, Cycle upto) const;

  /// Earliest backoff expiry strictly after `t` among in-service containers,
  /// if any — a wakeup source: until then a blocked container cannot change
  /// the kernel's options.
  std::optional<Cycle> next_unblock_after(Cycle t) const;

  /// Pick the container to sacrifice for a new rotation: prefer empty, then
  /// the expendable candidate `policy.pick()` chooses. `policy` is anything
  /// with ReplacementPolicy's pick(): a strategy object (policy.hpp) or the
  /// kernel's devirtualized ReplacementDispatch, so the built-in policies
  /// decide without a virtual call. Returns nullopt when every container is
  /// needed by `target` (or busy with an in-flight transfer, or blocked by
  /// fault backoff/quarantine).
  template <typename Policy>
  std::optional<unsigned> choose_victim(const atom::Molecule& target,
                                        Cycle now, Policy&& policy) const {
    for (const auto& c : containers_)
      if (!c.atom && !c.loading && !c.blocked(now)) return c.id;
    const auto candidates = victim_candidates(target, now);
    if (candidates.empty()) return std::nullopt;
    return policy.pick(candidates);
  }

 private:
  /// Expendable containers for `target` at `now`, in container-id order.
  std::vector<VictimCandidate> victim_candidates(const atom::Molecule& target,
                                                 Cycle now) const;

  std::vector<AtomContainer> containers_;
  const isa::AtomCatalog* catalog_;
  atom::Molecule committed_;  ///< incremental committed_atoms() view
  atom::Molecule usable_;     ///< incremental usable_atoms() view
  std::uint64_t usable_generation_ = 0;
  std::uint64_t loaded_slices_ = 0;  ///< incremental loaded_slices() view
  unsigned loading_count_ = 0;       ///< containers with a transfer in flight
  /// Scratch buffers reused by touch() so the per-execution LRU update makes
  /// no allocations (a ContainerFile was never shareable across threads —
  /// one manager owns one file — so plain members are fine).
  mutable std::vector<unsigned> touch_order_;
  mutable std::vector<atom::Count> touch_remaining_;
};

}  // namespace rispp::rt
