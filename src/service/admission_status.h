#ifndef HCPATH_SERVICE_ADMISSION_STATUS_H_
#define HCPATH_SERVICE_ADMISSION_STATUS_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace hcpath {

/// The canonical vocabulary by which the serving layer fails a submitted
/// query for policy reasons (docs/SERVICE.md "Overload behavior",
/// docs/SHARDING.md "Fault model"). Every such Status is built here —
/// engine and sharded service alike — so the (code, message-prefix,
/// retryable) triple stays a single point of truth:
///
///   * queue full    — ResourceExhausted, retryable: pressure drains.
///   * shed          — ResourceExhausted, retryable: overload passes.
///   * shutting down — FailedPrecondition, permanent: this engine will
///                     never admit again.
///   * shard unavailable / deadline — the sharded layer's transient and
///                     terminal dispatch outcomes.
///
/// The message strings are the legacy prefixes PR 5's tests and bench
/// drivers key on; they are kept verbatim as payloads of the canonical
/// codes (the satellite contract: classification changed, matching did
/// not). Recognizers below are the one sanctioned way to test for them.
inline Status QueueFullStatus(size_t queued_queries, uint64_t queued_bytes) {
  return Status::ResourceExhausted(
      "admission queue full: " + std::to_string(queued_queries) +
      " queries / " + std::to_string(queued_bytes) + " bytes queued");
}

inline Status ShedStatus(const std::string& tenant, double weight) {
  return Status::ResourceExhausted(
      "query shed by admission control: sustained overload (tenant \"" +
      tenant + "\", weight " + std::to_string(weight) + ")");
}

inline Status ShuttingDownStatus() {
  return Status::FailedPrecondition("PathEngine is shutting down");
}

/// Sharded dispatch outcomes (docs/SHARDING.md): a shard crashed, hung
/// past its attempt timeout, lost the reply, or was down when routed to.
/// Always kUnavailable — the one code the supervisor's bounded retry
/// redispatches on.
inline Status ShardUnavailableStatus(int shard, const std::string& why) {
  return Status::Unavailable("shard " + std::to_string(shard) +
                             " unavailable: " + why);
}

/// Terminal per-query outcome when the overall deadline expires before any
/// attempt replies. Not redispatched (the deadline is gone); classified
/// retryable for the CALLER, who may re-submit with a fresh deadline.
inline Status QueryDeadlineStatus(double deadline_seconds) {
  return Status::DeadlineExceeded(
      "query deadline of " + std::to_string(deadline_seconds) +
      "s expired before a shard replied");
}

inline bool HasStatusPrefix(const Status& s, const char* prefix) {
  return s.message().rfind(prefix, 0) == 0;
}

inline bool IsQueueFull(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted &&
         HasStatusPrefix(s, "admission queue full");
}
inline bool IsShed(const Status& s) {
  return s.code() == StatusCode::kResourceExhausted &&
         HasStatusPrefix(s, "query shed by admission control");
}
inline bool IsShardUnavailable(const Status& s) {
  return s.code() == StatusCode::kUnavailable &&
         HasStatusPrefix(s, "shard ");
}
inline bool IsQueryDeadline(const Status& s) {
  return s.code() == StatusCode::kDeadlineExceeded &&
         HasStatusPrefix(s, "query deadline");
}

}  // namespace hcpath

#endif  // HCPATH_SERVICE_ADMISSION_STATUS_H_
