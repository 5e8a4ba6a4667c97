#include "service/tenant.h"

#include <algorithm>

#include "common/timer.h"

namespace qfix {
namespace service {

TenantGovernor::TenantGovernor(Options options)
    : options_(options), clock_(&MonotonicSeconds) {
  options_.capacity = std::max(options_.capacity, 1);
  if (options_.activity_window_seconds < 0.0) {
    options_.activity_window_seconds = 0.0;
  }
}

void TenantGovernor::Ticket::Release() {
  if (governor_ != nullptr) {
    governor_->Release(acquired_);
    governor_ = nullptr;
    acquired_.clear();
  }
}

TenantGovernor::Tenant& TenantGovernor::TouchLocked(std::string_view tenant) {
  auto it = tenants_.find(std::string(tenant));
  if (it == tenants_.end()) {
    it = tenants_.emplace(std::string(tenant), std::make_unique<Tenant>())
             .first;
  }
  return *it->second;
}

bool TenantGovernor::ActiveLocked(const Tenant& t, double now) const {
  return t.inflight > 0 ||
         now - t.last_shed <= options_.activity_window_seconds;
}

int TenantGovernor::ShareLocked(int w, int total_w) const {
  if (total_w <= 0) return options_.capacity;
  long share = static_cast<long>(options_.capacity) * w / total_w;
  return static_cast<int>(std::max(share, 1L));
}

bool TenantGovernor::TryAcquire(
    const std::vector<std::pair<std::string, int>>& wants, Ticket* ticket) {
  // Settle any slots the ticket still holds before taking the lock
  // (Release() locks the same mutex).
  ticket->Release();
  std::lock_guard<std::mutex> lock(mu_);
  const double now = clock_();

  // Weight over the contending set: tenants with work in flight or a
  // live shed reservation, plus the tenants asking right now. Shares
  // are proportional slices of capacity over exactly this set.
  int total_weight = 0;
  for (const auto& [name, t] : tenants_) {
    (void)name;
    if (ActiveLocked(*t, now)) total_weight += t->weight;
  }
  for (const auto& [name, count] : wants) {
    (void)count;
    Tenant& t = TouchLocked(name);
    if (!ActiveLocked(t, now)) total_weight += t.weight;
  }

  // Cap counts at the gate capacity (an oversized batch waits for an
  // idle gate instead of shedding forever) and check global room.
  std::vector<std::pair<std::string, int>> capped;
  capped.reserve(wants.size());
  int requested_total = 0;
  for (const auto& [name, count] : wants) {
    int c = std::min(std::max(count, 0), options_.capacity);
    if (c == 0) continue;
    capped.emplace_back(name, c);
    requested_total += c;
  }
  if (requested_total == 0) return false;

  // Shedding stamps the reservation: a shed tenant is presumed to be
  // retrying, and its share stays spoken for — this is what keeps a
  // fast-retrying greedy tenant from racing a light one out of every
  // freed slot.
  auto shed = [&] {
    for (const auto& [name, c] : capped) {
      (void)c;
      TouchLocked(name).last_shed = now;
    }
    return false;
  };
  if (total_inflight_ + requested_total > options_.capacity) return shed();

  // Borrow check: admitting above a tenant's share must leave room for
  // every under-share contending tenant to still reach its own share.
  bool borrows = false;
  for (const auto& [name, c] : capped) {
    Tenant& t = TouchLocked(name);
    if (t.inflight + c > ShareLocked(t.weight, total_weight)) {
      borrows = true;
      break;
    }
  }
  if (borrows) {
    long committed = 0;  // sum of max(inflight', share) over contenders
    for (const auto& [name, t] : tenants_) {
      bool contending = ActiveLocked(*t, now);
      int after = t->inflight;
      for (const auto& [wname, c] : capped) {
        if (wname == name) {
          after += c;
          contending = true;
        }
      }
      if (!contending) continue;
      committed +=
          std::max(after, ShareLocked(t->weight, total_weight));
    }
    if (committed > options_.capacity) return shed();
  }

  for (const auto& [name, c] : capped) {
    TouchLocked(name).inflight += c;
  }
  total_inflight_ += requested_total;
  ticket->governor_ = this;
  ticket->acquired_ = std::move(capped);
  return true;
}

void TenantGovernor::Release(
    const std::vector<std::pair<std::string, int>>& acquired) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : acquired) {
    auto it = tenants_.find(name);
    if (it != tenants_.end()) {
      it->second->inflight = std::max(it->second->inflight - c, 0);
    }
    total_inflight_ = std::max(total_inflight_ - c, 0);
  }
}

int TenantGovernor::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_inflight_;
}

void TenantGovernor::SetWeight(std::string_view tenant, int weight) {
  std::lock_guard<std::mutex> lock(mu_);
  TouchLocked(tenant).weight = std::max(weight, 1);
}

std::vector<TenantGovernor::TenantStats> TenantGovernor::Snapshot() const {
  std::vector<TenantStats> out;
  std::lock_guard<std::mutex> lock(mu_);
  const double now = clock_();
  int total_weight = 0;
  for (const auto& [name, t] : tenants_) {
    (void)name;
    if (ActiveLocked(*t, now)) total_weight += t->weight;
  }
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStats s;
    s.name = name;
    s.weight = t->weight;
    s.share = ActiveLocked(*t, now) ? ShareLocked(t->weight, total_weight)
                                    : 0;
    s.inflight = t->inflight;
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const TenantStats& a, const TenantStats& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace service
}  // namespace qfix
