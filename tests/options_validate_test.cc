// BatchOptions::Validate and its wiring: malformed option values must be
// rejected with InvalidArgument at every pipeline entry point (previously
// they were silently accepted and steered clustering/detection).

#include <gtest/gtest.h>

#include <limits>

#include "core/basic_enum.h"
#include "core/batch_enum.h"
#include "core/enumerator.h"
#include "core/options.h"
#include "service/path_engine.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

TEST(OptionsValidate, DefaultsAreValid) {
  BatchOptions opt;
  EXPECT_TRUE(opt.Validate().ok());
}

TEST(OptionsValidate, GammaBounds) {
  BatchOptions opt;
  for (double ok : {0.0, 0.5, 1.0}) {
    opt.gamma = ok;
    EXPECT_TRUE(opt.Validate().ok()) << ok;
  }
  for (double bad : {-0.001, 1.001, -5.0, 42.0}) {
    opt.gamma = bad;
    Status st = opt.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
  }
  opt.gamma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(OptionsValidate, NegativeDominatingCap) {
  BatchOptions opt;
  opt.max_dominating_per_query = 0.0;  // 0 = unlimited, valid
  EXPECT_TRUE(opt.Validate().ok());
  opt.max_dominating_per_query = -2.5;
  EXPECT_EQ(opt.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(OptionsValidate, RejectedAtEveryEntryPoint) {
  const Graph g = PaperFigure1Graph();
  const std::vector<PathQuery> queries = PaperFigure1Queries();
  BatchOptions bad;
  bad.gamma = 1.5;

  CountingSink sink(queries.size());
  EXPECT_EQ(RunBatchEnum(g, queries, bad, false, &sink, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunBasicEnum(g, queries, bad, false, &sink, nullptr).code(),
            StatusCode::kInvalidArgument);

  BatchPathEnumerator enumerator(g);
  for (Algorithm algo :
       {Algorithm::kPathEnum, Algorithm::kBasicEnum, Algorithm::kBasicEnumPlus,
        Algorithm::kBatchEnum, Algorithm::kBatchEnumPlus}) {
    BatchOptions opt = bad;
    opt.algorithm = algo;
    auto result = enumerator.Run(queries, opt);
    EXPECT_FALSE(result.ok()) << AlgorithmName(algo);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << AlgorithmName(algo);
  }

  // Nothing was emitted by any rejected run.
  EXPECT_EQ(sink.Total(), 0u);
}

TEST(OptionsValidate, AdmissionDefaultsAreValid) {
  AdmissionOptions adm;
  EXPECT_TRUE(adm.Validate().ok());
}

TEST(OptionsValidate, AdmissionRejectsZeroQueueBudgets) {
  AdmissionOptions adm;
  adm.max_queued_queries = 0;
  EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument);
  adm = AdmissionOptions();
  adm.max_queued_bytes = 0;
  EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(OptionsValidate, AdmissionRejectsBadTenantWeights) {
  AdmissionOptions adm;
  adm.tenant_weights = {{"ok", 2.0}, {"bad", -1.0}};
  Status st = adm.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("bad"), std::string::npos) << st;

  adm.tenant_weights = {{"zero", 0.0}};  // zero weight would never drain
  EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument);
  adm.tenant_weights = {{"nan", std::numeric_limits<double>::quiet_NaN()}};
  EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(OptionsValidate, AdmissionRejectsInconsistentShedThresholds) {
  AdmissionOptions adm;
  adm.shed_low_watermark = 0.9;
  adm.shed_high_watermark = 0.5;  // low > high
  Status st = adm.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("inconsistent"), std::string::npos) << st;

  for (double bad : {0.0, -0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    adm = AdmissionOptions();
    adm.shed_low_watermark = bad;
    EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument) << bad;
    adm = AdmissionOptions();
    adm.shed_high_watermark = bad;  // out of range, or below the low mark
    EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument) << bad;
  }
  adm = AdmissionOptions();
  adm.shed_patience_seconds = -1.0;
  EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument);
  adm.shed_patience_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument);
  // Infinity is rejected too: an infinite shed deadline is not
  // representable by the wall clock ("never shed" = low watermark 1.0).
  adm.shed_patience_seconds = std::numeric_limits<double>::infinity();
  EXPECT_EQ(adm.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(OptionsValidate, AdmissionRejectedAtEngineConstruction) {
  // The engine entry point: a bad admission config parks the engine the
  // same way a bad batch config does — status() carries the error and
  // every Submit/RunBatch/StepDispatch is refused.
  const Graph g = PaperFigure1Graph();
  PathEngineOptions opt;
  opt.manual_dispatch = true;
  opt.admission.tenant_weights = {{"t", -2.0}};
  PathEngine engine(g, opt);
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
  auto future = engine.Submit("t", {0, 11, 5});
  EXPECT_EQ(future.get().status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.RunBatch({{0, 11, 5}}, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.StepDispatch(), 0u);
}

TEST(OptionsValidate, ValidationFailureBeatsQueryValidation) {
  // Options are checked before queries, so the error is stable even for
  // batches that would also fail query validation.
  const Graph g = PaperFigure1Graph();
  std::vector<PathQuery> queries = {{0, 0, 3}};  // s == t, also invalid
  BatchOptions bad;
  bad.max_dominating_per_query = -7;
  Status st = RunBatchEnum(g, queries, bad, true, nullptr, nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("max_dominating_per_query"), std::string::npos)
      << st;
}

}  // namespace
}  // namespace hcpath
