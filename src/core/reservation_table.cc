#include "core/reservation_table.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace carp::core {

void ReservationTable::Reserve(RouteId id, const Route& route) {
  for (TimeStep t = route.start_time(); t <= route.end_time(); ++t) {
    auto [it, inserted] =
        buckets_[t].try_emplace(CellKey(route.At(t)), id);
    CARP_CHECK(inserted || it->second == id)
        << "reserving over route " << it->second << " at " << route.At(t)
        << " t=" << t;
    if (inserted) ++entry_count_;
  }
  max_time_ = std::max(max_time_, route.end_time());
  MaybeAudit();
}

void ReservationTable::Release(RouteId id, const Route& route) {
  for (TimeStep t = route.start_time(); t <= route.end_time(); ++t) {
    auto bucket = buckets_.find(t);
    if (bucket == buckets_.end()) continue;
    auto it = bucket->second.find(CellKey(route.At(t)));
    if (it != bucket->second.end() && it->second == id) {
      bucket->second.erase(it);
      --entry_count_;
      if (bucket->second.empty()) {
        buckets_.erase(bucket);
        ++buckets_erased_;
      }
    }
  }
  MaybeAudit();
}

std::size_t ReservationTable::PruneBefore(TimeStep t) {
  std::size_t dropped = 0;
  for (auto it = buckets_.begin(); it != buckets_.end();) {
    if (it->first < t) {
      dropped += it->second.size();
      it = buckets_.erase(it);
      ++buckets_erased_;
    } else {
      ++it;
    }
  }
  entry_count_ -= dropped;
  MaybeAudit();
  return dropped;
}

std::optional<RouteId> ReservationTable::OccupantAt(GridCoord cell,
                                                    TimeStep t) const {
  auto bucket = buckets_.find(t);
  if (bucket == buckets_.end()) return std::nullopt;
  auto it = bucket->second.find(CellKey(cell));
  if (it == bucket->second.end()) return std::nullopt;
  return it->second;
}

bool ReservationTable::IsMoveAllowed(GridCoord from, GridCoord to,
                                     TimeStep t) const {
  if (!IsFree(to, t + 1)) return false;  // vertex conflict
  if (from == to) return true;           // waiting cannot swap
  // Swap conflict: someone sits on `to` at t and on `from` at t+1.
  auto at_to = OccupantAt(to, t);
  if (!at_to.has_value()) return true;
  auto at_from = OccupantAt(from, t + 1);
  return !(at_from.has_value() && *at_from == *at_to);
}

std::size_t ReservationTable::RetainedBytes() const {
  std::size_t bytes = mem::BytesOf(buckets_);
  for (const auto& [t, cells] : buckets_) bytes += mem::BytesOf(cells);
  return bytes;
}

void ReservationTable::Clear() {
  buckets_.clear();
  entry_count_ = 0;
  max_time_ = 0;
  buckets_erased_ = 0;
}

std::string ReservationTable::CheckInvariants() const {
  std::size_t counted = 0;
  for (const auto& [t, cells] : buckets_) {
    if (cells.empty()) {
      std::ostringstream err;
      err << "ReservationTable: empty bucket left behind at t=" << t;
      return err.str();
    }
    if (t > max_time_) {
      std::ostringstream err;
      err << "ReservationTable: bucket at t=" << t
          << " beyond max_time_=" << max_time_;
      return err.str();
    }
    counted += cells.size();
  }
  if (counted != entry_count_) {
    std::ostringstream err;
    err << "ReservationTable: buckets hold " << counted
        << " entries but entry_count_ says " << entry_count_;
    return err.str();
  }
  return {};
}

void ReservationTable::MaybeAudit() {
  if (!audit_.Tick()) return;
  const std::string err = CheckInvariants();
  CARP_CHECK(err.empty()) << err;
}

}  // namespace carp::core
