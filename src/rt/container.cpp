#include "rispp/rt/container.hpp"

#include <algorithm>
#include <limits>

#include "rispp/rt/policy.hpp"
#include "rispp/util/error.hpp"

namespace rispp::rt {

namespace {

/// failed_at + (base << shift), saturating at the largest Cycle instead of
/// wrapping: the base comes straight from configuration (a sweep's backoff
/// axis takes any u64), and a larger base must never yield a shorter
/// window.
Cycle backoff_until(Cycle failed_at, Cycle base, unsigned shift) {
  constexpr Cycle kMax = std::numeric_limits<Cycle>::max();
  if (base > (kMax >> shift)) return kMax;
  const Cycle window = base << shift;
  return window > kMax - failed_at ? kMax : failed_at + window;
}

}  // namespace

ContainerFile::ContainerFile(unsigned count, const isa::AtomCatalog& catalog)
    : catalog_(&catalog), committed_(catalog.size()), usable_(catalog.size()) {
  RISPP_REQUIRE(count > 0, "need at least one atom container");
  containers_.resize(count);
  for (unsigned i = 0; i < count; ++i) containers_[i].id = i;
  touch_order_.reserve(count);
  touch_remaining_.reserve(catalog.size());
}

const AtomContainer& ContainerFile::at(unsigned i) const {
  RISPP_REQUIRE(i < containers_.size(), "container index out of range");
  return containers_[i];
}

unsigned ContainerFile::usable_count() const {
  unsigned n = 0;
  for (const auto& c : containers_)
    if (!c.quarantined) ++n;
  return n;
}

void ContainerFile::refresh(Cycle now) {
  // Promotion keeps the container's committed kind, so committed_ is
  // unaffected here. Failed loads never reach this point: the kernel
  // retires them through on_rotation_failed before refreshing.
  if (loading_count_ == 0) return;  // steady state: nothing to promote
  for (auto& c : containers_) {
    if (c.loading && now >= c.ready_at) {
      c.atom = c.loading;
      c.loading.reset();
      c.fail_streak = 0;  // a clean load ends any failure streak
      usable_.set(*c.atom, usable_[*c.atom] + 1);
      ++usable_generation_;
      --loading_count_;
    }
  }
}

atom::Molecule ContainerFile::available_atoms(Cycle now) const {
  atom::Molecule m(catalog_->size());
  for (const auto& c : containers_) {
    if (c.loading && now >= c.ready_at) {
      m.set(*c.loading, m[*c.loading] + 1);  // finished but not refreshed yet
    } else if (c.atom && !c.loading) {
      m.set(*c.atom, m[*c.atom] + 1);
    }
  }
  return m;
}

void ContainerFile::start_rotation(unsigned c, std::size_t atom_kind,
                                   Cycle ready_at, int owner_task) {
  RISPP_REQUIRE(c < containers_.size(), "container index out of range");
  RISPP_REQUIRE(atom_kind < catalog_->size(), "atom kind out of range");
  RISPP_REQUIRE(catalog_->at(atom_kind).rotatable,
                "static atoms are never rotated into containers");
  auto& ac = containers_[c];
  const auto old = ac.loading ? ac.loading : ac.atom;
  if (old) {
    committed_.set(*old, committed_[*old] - 1);
    loaded_slices_ -= catalog_->at(*old).hardware.slices;
  }
  committed_.set(atom_kind, committed_[atom_kind] + 1);
  loaded_slices_ += catalog_->at(atom_kind).hardware.slices;
  if (ac.atom) {
    usable_.set(*ac.atom, usable_[*ac.atom] - 1);
    ++usable_generation_;
  }
  if (!ac.loading) ++loading_count_;
  // The old content becomes unusable the moment reconfiguration begins.
  ac.atom.reset();
  ac.loading = atom_kind;
  ac.ready_at = ready_at;
  ac.owner_task = owner_task;
}

void ContainerFile::abort_rotation(unsigned c) {
  RISPP_REQUIRE(c < containers_.size(), "container index out of range");
  auto& ac = containers_[c];
  RISPP_REQUIRE(ac.loading.has_value(), "no rotation to abort");
  committed_.set(*ac.loading, committed_[*ac.loading] - 1);
  loaded_slices_ -= catalog_->at(*ac.loading).hardware.slices;
  --loading_count_;
  ++usable_generation_;  // the aborted load will never become usable
  ac.loading.reset();
  ac.atom.reset();
  ac.ready_at = 0;
  ac.owner_task = kNoTask;
}

bool ContainerFile::on_rotation_failed(unsigned c, std::size_t atom_kind,
                                       Cycle failed_at, unsigned max_retries,
                                       Cycle retry_backoff_cycles) {
  RISPP_REQUIRE(c < containers_.size(), "container index out of range");
  auto& ac = containers_[c];
  // The failure is discovered at the transfer's end, before refresh() could
  // promote the poisoned load — the container must still be loading exactly
  // the booking's atom kind.
  RISPP_REQUIRE(ac.loading && *ac.loading == atom_kind,
                "failed rotation does not match the container's load");
  committed_.set(atom_kind, committed_[atom_kind] - 1);
  loaded_slices_ -= catalog_->at(atom_kind).hardware.slices;
  --loading_count_;
  ++usable_generation_;  // the poisoned load will never become usable
  ac.loading.reset();
  ac.atom.reset();
  ac.ready_at = 0;
  ac.owner_task = kNoTask;
  ++ac.fail_streak;
  if (ac.fail_streak > max_retries) {
    ac.quarantined = true;
    return true;
  }
  // Capped exponential backoff: base << (streak-1), with the exponent
  // capped at 16 and the window saturated; streak >= 1 here.
  const unsigned shift = std::min(ac.fail_streak - 1, 16u);
  ac.blocked_until = backoff_until(failed_at, retry_backoff_cycles, shift);
  return false;
}

void ContainerFile::touch(const atom::Molecule& used, Cycle now) {
  // Mark one container per required atom instance as used, visiting
  // containers least-recently-used first (ties towards the lowest id) so
  // repeated touches of a partially-used kind cycle through its instances
  // and keep the timestamps coherent instead of re-marking the same ids.
  // Runs once per SI execution: the order/remaining scratch is reused
  // across calls and the order is a stable insertion sort in place
  // (std::stable_sort allocates a temporary buffer), so the hot path makes
  // no allocations.
  auto& order = touch_order_;
  order.clear();
  for (const auto& c : containers_) {
    if (!c.atom || c.loading) continue;
    // Shift the later-used entries up; equal timestamps keep id order.
    std::size_t pos = order.size();
    order.push_back(c.id);
    while (pos > 0 && containers_[order[pos - 1]].last_used > c.last_used) {
      order[pos] = order[pos - 1];
      --pos;
    }
    order[pos] = c.id;
  }

  auto& remaining = touch_remaining_;
  remaining.assign(used.counts().begin(), used.counts().end());
  for (const auto id : order) {
    auto& c = containers_[id];
    if (remaining[*c.atom] > 0) {
      --remaining[*c.atom];
      c.last_used = now;
    }
  }
}

bool ContainerFile::unblocked_in(Cycle after, Cycle upto) const {
  for (const auto& c : containers_)
    if (!c.blocked_for_good() && c.blocked_until > after &&
        c.blocked_until <= upto)
      return true;
  return false;
}

std::optional<Cycle> ContainerFile::next_unblock_after(Cycle t) const {
  std::optional<Cycle> next;
  for (const auto& c : containers_)
    if (!c.blocked_for_good() && c.blocked_until > t &&
        (!next || c.blocked_until < *next))
      next = c.blocked_until;
  return next;
}

std::vector<VictimCandidate> ContainerFile::victim_candidates(
    const atom::Molecule& target, Cycle now) const {
  // A container is expendable when its kind's committed count exceeds the
  // target's demand for that kind (needed atoms are never evicted).
  std::vector<VictimCandidate> out;
  atom::Molecule excess = committed_.saturating_sub(target);
  for (const auto& c : containers_) {
    if (c.busy(now)) continue;  // cannot preempt an in-flight transfer
    if (c.blocked(now)) continue;  // fault backoff / quarantine
    const auto kind = c.loading ? c.loading : c.atom;
    if (!kind) continue;
    if (excess[*kind] == 0) continue;
    out.push_back(VictimCandidate{
        .container = c.id,
        .atom_kind = *kind,
        .last_used = c.last_used,
        .owner_task = c.owner_task,
    });
  }
  return out;
}

}  // namespace rispp::rt
