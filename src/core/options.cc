#include "core/options.h"

#include <cmath>

namespace hcpath {

Status BatchOptions::Validate() const {
  if (!(gamma >= 0.0 && gamma <= 1.0)) {  // the negation also rejects NaN
    return Status::InvalidArgument("BatchOptions.gamma must be in [0, 1], got " +
                                   std::to_string(gamma));
  }
  if (!(max_dominating_per_query >= 0.0)) {  // rejects negatives and NaN
    return Status::InvalidArgument(
        "BatchOptions.max_dominating_per_query must be >= 0, got " +
        std::to_string(max_dominating_per_query));
  }
  return Status::OK();
}

Status AdmissionOptions::Validate() const {
  if (max_queued_queries < 1) {
    return Status::InvalidArgument(
        "AdmissionOptions.max_queued_queries must be >= 1, got 0");
  }
  if (max_queued_bytes < 1) {
    return Status::InvalidArgument(
        "AdmissionOptions.max_queued_bytes must be >= 1, got 0");
  }
  if (!(shed_low_watermark > 0.0 && shed_low_watermark <= 1.0)) {
    return Status::InvalidArgument(
        "AdmissionOptions.shed_low_watermark must be in (0, 1], got " +
        std::to_string(shed_low_watermark));
  }
  if (!(shed_high_watermark > 0.0 && shed_high_watermark <= 1.0)) {
    return Status::InvalidArgument(
        "AdmissionOptions.shed_high_watermark must be in (0, 1], got " +
        std::to_string(shed_high_watermark));
  }
  if (!(shed_low_watermark <= shed_high_watermark)) {
    return Status::InvalidArgument(
        "AdmissionOptions shed watermarks are inconsistent: low " +
        std::to_string(shed_low_watermark) + " > high " +
        std::to_string(shed_high_watermark));
  }
  // Rejects negatives, NaN, and infinity (an infinite deadline is not
  // representable by the wall clock's wait; "never shed" is expressed with
  // shed_low_watermark = 1.0 instead).
  if (!(shed_patience_seconds >= 0.0) ||
      !std::isfinite(shed_patience_seconds)) {
    return Status::InvalidArgument(
        "AdmissionOptions.shed_patience_seconds must be finite and >= 0, "
        "got " +
        std::to_string(shed_patience_seconds));
  }
  for (const auto& [tenant, weight] : tenant_weights) {
    if (!(weight > 0.0)) {
      return Status::InvalidArgument(
          "AdmissionOptions.tenant_weights[\"" + tenant +
          "\"] must be > 0, got " + std::to_string(weight));
    }
  }
  return Status::OK();
}

}  // namespace hcpath
