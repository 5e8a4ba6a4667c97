// Per-tenant admission control.
//
// A tenant is a dataset namespace: the prefix of the dataset name up to
// the first '/' ("acme/taxes" -> tenant "acme"; a name with no '/' is
// its own single-dataset tenant). The TenantGovernor layers weighted
// fair sharing on top of the server's item-weighted admission gate:
//
//   * Capacity is counted in batch items, exactly like the old global
//     gate — one slot per solve, cache hits take none.
//   * Every *contending* tenant owns a guaranteed share of the
//     capacity proportional to its weight (default 1, configurable per
//     tenant). Contending means "has work in flight, was shed within
//     the activity window (presumed retrying), or is asking right
//     now" — a shed tenant keeps its reservation, so a greedy tenant
//     can never starve a light one by winning the re-admission race
//     for every freed slot; a tenant that merely *finished* reserves
//     nothing and borrowing stays work-conserving.
//   * Admission below the guaranteed share only needs global room.
//     Admission above it (borrowing) must leave enough free capacity
//     for every under-share contending tenant to still reach its
//     share; otherwise the request sheds with 429. With a single
//     contending tenant this degenerates to the old global gate: its
//     share is the whole capacity.
//
// The governor keeps admission state only. Per-tenant serving counts and
// latency live in the server's metrics registry, labelled by tenant.
#ifndef QFIX_SERVICE_TENANT_H_
#define QFIX_SERVICE_TENANT_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/report_cache.h"

namespace qfix {
namespace service {

/// The tenant (dataset namespace) a dataset name belongs to: the prefix
/// before the first '/', or the whole name when it has none. Defined
/// once, next to the report cache's per-tenant partitions.
using cache::TenantOf;

class TenantGovernor {
 public:
  struct Options {
    /// Admission capacity in batch items, shared across tenants.
    int capacity = 8;
    /// How long after being shed a tenant keeps its guaranteed
    /// reservation while it (presumably) retries.
    double activity_window_seconds = 5.0;
  };

  explicit TenantGovernor(Options options);

  TenantGovernor(const TenantGovernor&) = delete;
  TenantGovernor& operator=(const TenantGovernor&) = delete;

  /// Sets a tenant's fair-share weight (clamped to >= 1). Safe at any
  /// time; takes effect on the next admission decision.
  void SetWeight(std::string_view tenant, int weight);

  /// One admitted request's slots across one or more tenants. Move-only
  /// RAII: destruction (or Release()) returns the slots.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept {
      Release();
      governor_ = other.governor_;
      acquired_ = std::move(other.acquired_);
      other.governor_ = nullptr;
      other.acquired_.clear();
      return *this;
    }
    ~Ticket() { Release(); }
    void Release();
    bool held() const { return governor_ != nullptr; }

   private:
    friend class TenantGovernor;
    TenantGovernor* governor_ = nullptr;
    std::vector<std::pair<std::string, int>> acquired_;
  };

  /// All-or-nothing weighted admission for one request. `wants` pairs
  /// each tenant (names must be distinct) with its item count; counts
  /// are capped at the gate capacity, so an oversized batch is still
  /// admittable on an idle gate — as with the old global gate — rather
  /// than shed forever. On success fills `*ticket` and returns true;
  /// on false nothing was acquired, the caller must shed with 429, and
  /// the shed tenants' reservations are stamped.
  bool TryAcquire(const std::vector<std::pair<std::string, int>>& wants,
                  Ticket* ticket);

  /// Total items currently admitted.
  int inflight() const;
  int capacity() const { return options_.capacity; }

  /// Point-in-time admission state of one tenant.
  struct TenantStats {
    std::string name;
    int weight = 1;
    /// Guaranteed share of the capacity at snapshot time (0 when the
    /// tenant is idle with no live reservation).
    int share = 0;
    int inflight = 0;
  };
  /// Every tenant ever seen, sorted by name.
  std::vector<TenantStats> Snapshot() const;

  /// Test hook: replaces the activity clock (monotonic seconds).
  void SetClockForTest(double (*clock)()) { clock_ = clock; }

 private:
  struct Tenant {
    int weight = 1;
    int inflight = 0;
    double last_shed = -1e18;  // reservation stamp (monotonic seconds)
  };

  Tenant& TouchLocked(std::string_view tenant);
  bool ActiveLocked(const Tenant& t, double now) const;
  /// Guaranteed share for weight `w` out of active weight `total_w`.
  int ShareLocked(int w, int total_w) const;
  void Release(const std::vector<std::pair<std::string, int>>& acquired);

  Options options_;
  double (*clock_)();
  mutable std::mutex mu_;
  int total_inflight_ = 0;
  std::unordered_map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace service
}  // namespace qfix

#endif  // QFIX_SERVICE_TENANT_H_
