#include "rispp/rt/rotation.hpp"

#include <algorithm>
#include <limits>

#include "rispp/util/error.hpp"

namespace rispp::rt {

RotationScheduler::RotationScheduler(hw::FaultyReconfigPort port,
                                     double clock_mhz)
    : port_(port), clock_mhz_(clock_mhz) {
  RISPP_REQUIRE(clock_mhz > 0, "clock frequency must be positive");
}

RotationScheduler::RotationScheduler(hw::ReconfigPort port, double clock_mhz)
    : RotationScheduler(hw::FaultyReconfigPort(port), clock_mhz) {}

Cycle RotationScheduler::duration_cycles(std::size_t atom_kind,
                                         const isa::AtomCatalog& catalog) const {
  return port_.base().rotation_time_cycles(
      catalog.at(atom_kind).hardware.bitstream_bytes, clock_mhz_);
}

void RotationScheduler::prune(Cycle now) {
  std::erase_if(bookings_, [&](const Booking& b) { return b.done <= now; });
}

RotationScheduler::Booking RotationScheduler::schedule(
    Cycle now, std::size_t atom_kind, const isa::AtomCatalog& catalog,
    unsigned container) {
  prune(now);
  const auto transfer = port_.next_transfer(
      catalog.at(atom_kind).hardware.bitstream_bytes, clock_mhz_);
  const Cycle start = std::max(now, busy_until_);
  // Saturating: a transfer booked near the largest Cycle ends there rather
  // than wrapping to a `done` before its `start`.
  constexpr Cycle kMax = std::numeric_limits<Cycle>::max();
  const Cycle done =
      transfer.cycles > kMax - start ? kMax : start + transfer.cycles;
  busy_until_ = done;
  ++rotations_;
  const Booking booking{start, done, container, atom_kind, transfer.result};
  bookings_.push_back(booking);
  if (booking.result != hw::TransferResult::Ok) faulty_.push_back(booking);
  return booking;
}

std::optional<RotationScheduler::Booking> RotationScheduler::pending_for(
    unsigned container, Cycle now) const {
  for (const auto& b : bookings_)
    if (b.container == container && b.start > now && b.done > now) return b;
  return std::nullopt;
}

std::optional<Cycle> RotationScheduler::next_completion_after(Cycle t) const {
  std::optional<Cycle> next;
  for (const auto& b : bookings_)
    if (b.done > t && (!next || b.done < *next)) next = b.done;
  return next;
}

bool RotationScheduler::completed_in(Cycle after, Cycle upto) const {
  // Bookings are pruned lazily and only from schedule(), which always runs
  // right after a fresh plan — so everything pruned away completed at or
  // before the current plan's timestamp and can never fall in this window.
  for (const auto& b : bookings_)
    if (b.done > after && b.done <= upto) return true;
  return false;
}

std::vector<RotationScheduler::Booking> RotationScheduler::take_failures(
    Cycle now) {
  // `done` is non-decreasing along faulty_ (the port is serial and appends
  // in issue order), so the deliverable entries form a prefix.
  std::size_t n = 0;
  while (n < faulty_.size() && faulty_[n].done <= now) ++n;
  std::vector<Booking> out(faulty_.begin(), faulty_.begin() + n);
  faulty_.erase(faulty_.begin(), faulty_.begin() + n);
  return out;
}

bool RotationScheduler::cancel_pending(unsigned container, Cycle now) {
  const auto it =
      std::find_if(bookings_.begin(), bookings_.end(), [&](const Booking& b) {
        return b.container == container && b.start > now && b.done > now;
      });
  if (it == bookings_.end()) return false;
  if (it->result != hw::TransferResult::Ok) {
    // Cancelled is the booking's terminal state: the failure it would have
    // reported must never be delivered later for whatever rotation the
    // container hosts next.
    const auto fit = std::find_if(
        faulty_.begin(), faulty_.end(), [&](const Booking& f) {
          return f.container == it->container && f.start == it->start &&
                 f.done == it->done && f.atom_kind == it->atom_kind;
        });
    RISPP_ENSURE(fit != faulty_.end(),
                 "cancelled faulty booking missing from failure queue");
    faulty_.erase(fit);
  }
  // The port idles through the vacated slot: later bookings keep the times
  // they were announced with, so container ready_at values stay valid.
  bookings_.erase(it);
  ++cancelled_;
  RISPP_ENSURE(rotations_ > 0, "cancelled more rotations than scheduled");
  --rotations_;
  return true;
}

}  // namespace rispp::rt
