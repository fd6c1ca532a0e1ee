#include "core/enumerator.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.h"
#include "test_graphs.h"

namespace hcpath {
namespace {

TEST(Enumerator, RunsWithoutSink) {
  Graph g = PaperFigure1Graph();
  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  auto result = enumerator.Run(PaperFigure1Queries(), opt);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->path_counts,
            (std::vector<uint64_t>{3, 3, 1, 2, 2}));
  EXPECT_EQ(result->TotalPaths(), 11u);
}

TEST(Enumerator, CountsMatchSink) {
  Graph g = PaperFigure1Graph();
  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  opt.algorithm = Algorithm::kBasicEnum;
  CollectingSink sink(5);
  auto result = enumerator.Run(PaperFigure1Queries(), opt, &sink);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result->path_counts[i], sink.paths(i).size());
  }
}

TEST(Enumerator, PropagatesValidationErrors) {
  Graph g = PaperFigure1Graph();
  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  for (Algorithm algo :
       {Algorithm::kPathEnum, Algorithm::kBasicEnum,
        Algorithm::kBatchEnum}) {
    opt.algorithm = algo;
    auto result = enumerator.Run({{0, 0, 3}}, opt);
    EXPECT_FALSE(result.ok()) << AlgorithmName(algo);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Enumerator, EmptyBatchIsFine) {
  Graph g = PaperFigure1Graph();
  BatchPathEnumerator enumerator(g);
  BatchOptions opt;
  auto result = enumerator.Run({}, opt);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->path_counts.empty());
}

/// The facade keeps nothing derived from its graph across Run calls:
/// assigning a rebuilt graph into the referenced object between Run calls
/// yields the new graph's counts, for the per-query and the batch
/// pipelines alike.
TEST(Enumerator, RunSeesGraphReassignedBetweenCalls) {
  for (Algorithm algo : {Algorithm::kPathEnum, Algorithm::kBatchEnumPlus}) {
    Graph g = PaperFigure1Graph();
    BatchPathEnumerator enumerator(g);
    BatchOptions opt;
    opt.algorithm = algo;

    auto before = enumerator.Run(PaperFigure1Queries(), opt);
    ASSERT_TRUE(before.ok());
    EXPECT_EQ(before->path_counts, (std::vector<uint64_t>{3, 3, 1, 2, 2}));

    // Drop 9->3 (kills two of query 0's three paths) by rebuilding.
    std::vector<EdgeUpdate> batch = {EdgeUpdate::Remove(9, 3)};
    g = *GraphBuilder::ApplyUpdates(g, batch);

    auto after = enumerator.Run(PaperFigure1Queries(), opt);
    ASSERT_TRUE(after.ok()) << AlgorithmName(algo);
    // Oracle: a fresh enumerator over the rebuilt graph.
    BatchPathEnumerator fresh(g);
    auto oracle = fresh.Run(PaperFigure1Queries(), opt);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(after->path_counts, oracle->path_counts) << AlgorithmName(algo);
    EXPECT_NE(after->path_counts, before->path_counts)
        << "update must be observable";
  }
}

TEST(Enumerator, AlgorithmNames) {
  EXPECT_STREQ(AlgorithmName(Algorithm::kPathEnum), "PathEnum");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBasicEnum), "BasicEnum");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBasicEnumPlus), "BasicEnum+");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBatchEnum), "BatchEnum");
  EXPECT_STREQ(AlgorithmName(Algorithm::kBatchEnumPlus), "BatchEnum+");
}

TEST(Enumerator, ParseAlgorithm) {
  EXPECT_EQ(*ParseAlgorithm("pathenum"), Algorithm::kPathEnum);
  EXPECT_EQ(*ParseAlgorithm("basic"), Algorithm::kBasicEnum);
  EXPECT_EQ(*ParseAlgorithm("basic+"), Algorithm::kBasicEnumPlus);
  EXPECT_EQ(*ParseAlgorithm("batch"), Algorithm::kBatchEnum);
  EXPECT_EQ(*ParseAlgorithm("batch+"), Algorithm::kBatchEnumPlus);
  EXPECT_EQ(*ParseAlgorithm("BatchEnum+"), Algorithm::kBatchEnumPlus);
  EXPECT_FALSE(ParseAlgorithm("bogus").ok());
}

}  // namespace
}  // namespace hcpath
