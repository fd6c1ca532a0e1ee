#ifndef HCPATH_SERVICE_TENANT_QUEUE_H_
#define HCPATH_SERVICE_TENANT_QUEUE_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace hcpath {

/// Per-tenant FIFO queues drained by start-time weighted fair queueing,
/// with entry/byte accounting and lowest-weight-first shed selection — the
/// admission data structure of the PathEngine scheduler (docs/SERVICE.md).
///
/// Not thread-safe: the engine guards it with its admission mutex. Every
/// policy here is a pure function of the push/pop/shed call sequence, which
/// is what makes scheduler decisions exactly assertable under the
/// virtual-clock harness.
///
/// Drain policy (PopNext): each tenant carries a virtual service tag; the
/// next item comes from the non-empty tenant whose finish tag
/// (service + 1/weight) is smallest, ties broken by lexicographically
/// smallest tenant id, FIFO within a tenant. A tenant arriving into an
/// empty queue starts at the queue-wide virtual time, so an idle tenant
/// cannot hoard credit. Over any backlogged interval each tenant therefore
/// receives service proportional to its weight (classic SFQ fairness).
///
/// Shed policy (ShedDownTo): drop waiting items, lowest tenant weight
/// first — ties broken by lexicographically greatest tenant id — and
/// newest-first within a tenant (the oldest items have paid the most
/// waiting and are kept), until both the entry and byte targets hold.
template <typename T>
class WeightedFairQueue {
 public:
  struct Item {
    std::string tenant;
    double weight = 1;
    double enqueued_seconds = 0;
    uint64_t cost_bytes = 0;
    T value;
  };

  /// Fixes `tenant`'s weight (> 0). Unregistered tenants weigh 1.
  void SetWeight(const std::string& tenant, double weight) {
    HCPATH_DCHECK(weight > 0);
    TenantState& ts = tenants_[tenant];
    ts.weight = weight;
  }

  size_t size() const { return total_items_; }
  bool empty() const { return total_items_ == 0; }
  uint64_t bytes() const { return total_bytes_; }

  /// Earliest enqueue time over all queued items (the oldest item is at
  /// some tenant's front). Requires !empty().
  double OldestEnqueueSeconds() const {
    HCPATH_DCHECK(!empty());
    double oldest = std::numeric_limits<double>::infinity();
    for (const auto& [id, ts] : tenants_) {
      if (!ts.queue.empty()) {
        oldest = std::min(oldest, ts.queue.front().enqueued_seconds);
      }
    }
    return oldest;
  }

  void Push(const std::string& tenant, double now_seconds,
            uint64_t cost_bytes, T value) {
    TenantState& ts = tenants_[tenant];
    if (ts.queue.empty()) {
      // Re-sync an idle tenant to the queue-wide virtual time: it competes
      // from now on, it does not cash in idle time.
      ts.service = std::max(ts.service, virtual_time_);
    }
    Item item;
    item.tenant = tenant;
    item.weight = ts.weight;
    item.enqueued_seconds = now_seconds;
    item.cost_bytes = cost_bytes;
    item.value = std::move(value);
    ts.queue.push_back(std::move(item));
    ts.bytes += cost_bytes;
    ++total_items_;
    total_bytes_ += cost_bytes;
  }

  /// Dequeues the WFQ-next item. Requires !empty().
  Item PopNext() {
    HCPATH_DCHECK(!empty());
    TenantState* best = nullptr;
    double best_finish = 0;
    for (auto& [id, ts] : tenants_) {
      if (ts.queue.empty()) continue;
      const double finish = ts.service + 1.0 / ts.weight;
      // Strict < plus ascending map order = smallest-id tie-break.
      if (best == nullptr || finish < best_finish) {
        best = &ts;
        best_finish = finish;
      }
    }
    best->service = best_finish;
    virtual_time_ = std::max(virtual_time_, best_finish);
    Item item = std::move(best->queue.front());
    best->queue.pop_front();
    best->bytes -= item.cost_bytes;
    --total_items_;
    total_bytes_ -= item.cost_bytes;
    return item;
  }

  /// Removes waiting items per the shed policy until
  /// size() <= target_items and bytes() <= target_bytes; returns them in
  /// shed order. Never blocks; may return fewer than asked only when the
  /// queue empties.
  std::vector<Item> ShedDownTo(size_t target_items, uint64_t target_bytes) {
    std::vector<Item> shed;
    while (total_items_ > 0 &&
           (total_items_ > target_items || total_bytes_ > target_bytes)) {
      TenantState* victim = nullptr;
      const std::string* victim_id = nullptr;
      for (auto& [id, ts] : tenants_) {
        if (ts.queue.empty()) continue;
        // Lowest weight first; ties -> lexicographically greatest id (the
        // mirror image of the drain tie-break, so the tenant served last is
        // also shed first).
        if (victim == nullptr || ts.weight < victim->weight ||
            (ts.weight == victim->weight && id > *victim_id)) {
          victim = &ts;
          victim_id = &id;
        }
      }
      Item item = std::move(victim->queue.back());
      victim->queue.pop_back();
      victim->bytes -= item.cost_bytes;
      --total_items_;
      total_bytes_ -= item.cost_bytes;
      shed.push_back(std::move(item));
    }
    return shed;
  }

 private:
  struct TenantState {
    double weight = 1;
    double service = 0;  ///< finish tag of this tenant's last dequeued item
    uint64_t bytes = 0;
    std::deque<Item> queue;
  };

  double virtual_time_ = 0;  ///< largest finish tag dequeued so far
  size_t total_items_ = 0;
  uint64_t total_bytes_ = 0;
  /// Ordered map: deterministic iteration is what makes the tie-breaks
  /// (and therefore batch composition and shed order) reproducible.
  std::map<std::string, TenantState> tenants_;
};

}  // namespace hcpath

#endif  // HCPATH_SERVICE_TENANT_QUEUE_H_
