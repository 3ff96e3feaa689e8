// The degradation contract under execution budgets, per algorithm: when a
// RunContext budget expires mid-run, every algorithm either returns its
// best-so-far result with run_stats.truncated set, or a clean Status with
// a budget code — never a hang, never a crash, never a silently complete
// answer. docs/error_handling.md records which algorithm does which.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "anonymize/clustering.h"
#include "anonymize/datafly.h"
#include "anonymize/incognito.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/pareto_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "anonymize/top_down.h"
#include "common/run_context.h"
#include "datagen/census_generator.h"
#include "hierarchy/suffix_hierarchy.h"
#include "hierarchy/taxonomy_hierarchy.h"
#include "paper/paper_data.h"
#include "privacy/k_anonymity.h"
#include "table/schema.h"

namespace mdc {
namespace {

std::shared_ptr<const Dataset> Data() {
  auto data = paper::Table1();
  MDC_CHECK(data.ok());
  return *data;
}

HierarchySet Hierarchies() {
  auto set = paper::HierarchySetA();
  MDC_CHECK(set.ok());
  return std::move(set).value();
}

// The contract every algorithm must satisfy on budget expiry: a truncated
// best-so-far result, or a clean budget Status.
template <typename ResultOr>
void ExpectBudgetOutcome(const ResultOr& result, const char* what) {
  if (result.ok()) {
    EXPECT_TRUE(result->run_stats.truncated)
        << what << " finished under an exhausted budget without truncation";
  } else {
    EXPECT_TRUE(result.status().IsBudgetError())
        << what << " returned a non-budget error: "
        << result.status().ToString();
  }
}

TEST(BudgetTest, DataflyReturnsBudgetStatus) {
  RunContext run;
  run.set_max_steps(0);
  auto result = DataflyAnonymize(Data(), Hierarchies(), DataflyConfig{3, {}},
                                 &run);
  // The greedy climb has no feasible best-so-far, so expiry is a clean
  // budget Status, never a partial result.
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBudgetError());
}

TEST(BudgetTest, SamaratiDegradesToFeasibleHeight) {
  RunContext run;
  run.set_max_steps(3);  // Expires inside the binary search.
  auto result = SamaratiAnonymize(Data(), Hierarchies(),
                                  SamaratiConfig{3, {}}, ProxyLoss, &run);
  ExpectBudgetOutcome(result, "samarati");
  if (result.ok()) {
    // Whatever height it reached, the release it returns is k-anonymous.
    double min_ec =
        KAnonymity(1).Measure(result->best.anonymization,
                              result->best.partition);
    EXPECT_GE(min_ec, 3.0);
  }
}

TEST(BudgetTest, SamaratiZeroBudgetIsCleanStatus) {
  RunContext run;
  run.set_max_steps(0);
  auto result = SamaratiAnonymize(Data(), Hierarchies(),
                                  SamaratiConfig{3, {}}, ProxyLoss, &run);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBudgetError());
}

TEST(BudgetTest, IncognitoContract) {
  for (uint64_t max_steps : {0, 2, 10, 50}) {
    RunContext run;
    run.set_max_steps(max_steps);
    IncognitoConfig config;
    config.k = 3;
    auto result = IncognitoAnonymize(Data(), Hierarchies(), config,
                                     ProxyLoss, &run);
    if (result.ok() && !result->run_stats.truncated) continue;  // Finished.
    ExpectBudgetOutcome(result, "incognito");
  }
}

TEST(BudgetTest, OptimalSearchDegradesToPartialFrontier) {
  for (uint64_t max_steps : {0, 5, 25}) {
    RunContext run;
    run.set_max_steps(max_steps);
    OptimalSearchConfig config;
    config.k = 3;
    auto result = OptimalLatticeSearch(Data(), Hierarchies(), config,
                                       ProxyLoss, &run);
    if (result.ok() && !result->run_stats.truncated) continue;
    ExpectBudgetOutcome(result, "optimal");
    if (result.ok()) {
      EXPECT_FALSE(result->minimal_nodes.empty());
    }
  }
}

TEST(BudgetTest, ParetoSearchDegradesToEvaluatedPrefix) {
  RunContext run;
  run.set_max_steps(10);
  auto result = ParetoLatticeSearch(Data(), Hierarchies(), {}, &run);
  ExpectBudgetOutcome(result, "pareto");
  if (result.ok()) {
    // Fronts are computed over the evaluated prefix only.
    EXPECT_LT(result->candidates.size(), 72u);  // Full lattice is 72 nodes.
    EXPECT_FALSE(result->candidates.empty());
  }
}

TEST(BudgetTest, MondrianStopsSplittingAndStaysKAnonymous) {
  RunContext run;
  run.set_max_steps(0);
  auto result = MondrianAnonymize(Data(), MondrianConfig{2}, &run);
  // Releasing a partition unsplit keeps >= k rows per class, so Mondrian
  // always degrades to a valid (coarser) release.
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->run_stats.truncated);
  double min_ec =
      KAnonymity(1).Measure(result->anonymization, result->partition);
  EXPECT_GE(min_ec, 2.0);
}

TEST(BudgetTest, StochasticDegradesToVerifiedNode) {
  RunContext run;
  run.set_max_steps(2);  // Survives top verification, dies in restarts.
  StochasticConfig config;
  config.k = 3;
  config.restarts = 5;
  config.seed = 11;
  auto result = StochasticAnonymize(Data(), Hierarchies(), config, ProxyLoss,
                                    &run);
  ExpectBudgetOutcome(result, "stochastic");
  if (result.ok()) {
    EXPECT_TRUE(result->best.feasible);
  }
}

TEST(BudgetTest, TopDownReturnsCurrentFeasibleNode) {
  RunContext run;
  run.set_max_steps(1);  // Top evaluation passes; first candidate does not.
  auto result = TopDownSpecialize(Data(), Hierarchies(),
                                  GreedyWalkConfig{3, {}}, ProxyLoss, &run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->run_stats.truncated);
  EXPECT_TRUE(result->evaluation.feasible);
}

TEST(BudgetTest, BottomUpReturnsBudgetStatus) {
  RunContext run;
  run.set_max_steps(0);
  auto result = BottomUpGeneralize(Data(), Hierarchies(),
                                   GreedyWalkConfig{3, {}}, ProxyLoss, &run);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBudgetError());
}

// A value outside its hierarchy's domain fails when a search builds its
// encoded evaluator, before the first budget check, so even a spent step
// budget reports the domain error. It is the Status the string path
// returns at the first node it evaluates (the taxonomy rejects the value
// at every level).
TEST(BudgetTest, OutOfDomainValueFailsBeforeTheFirstBudgetCheck) {
  auto schema = ParseSchemaSpec("kind:string:qi,code:string:qi");
  ASSERT_TRUE(schema.ok());
  auto data = std::make_shared<Dataset>(*schema);
  for (const char* kind : {"a", "b", "zzz", "a"}) {
    ASSERT_TRUE(
        data->AppendRow({Value(std::string(kind)), Value(std::string("123"))})
            .ok());
  }
  auto tree = TaxonomyHierarchy::Builder().Add("a", "*").Add("b", "*").Build();
  ASSERT_TRUE(tree.ok());
  auto suffix = SuffixHierarchy::Create(3);
  ASSERT_TRUE(suffix.ok());
  HierarchySet hierarchies;
  ASSERT_TRUE(
      hierarchies.Bind(0, std::make_shared<TaxonomyHierarchy>(*tree)).ok());
  ASSERT_TRUE(
      hierarchies.Bind(1, std::make_shared<SuffixHierarchy>(*suffix)).ok());
  auto string_path = EvaluateNode(data, hierarchies, {1, 1}, 2, {}, "test");
  ASSERT_FALSE(string_path.ok());
  const std::string want = string_path.status().ToString();

  auto spent = [] {
    RunContext run;
    run.set_max_steps(0);
    return run;
  };
  RunContext datafly_run = spent();
  EXPECT_EQ(DataflyAnonymize(data, hierarchies, DataflyConfig{2, {}},
                             &datafly_run)
                .status()
                .ToString(),
            want);
  RunContext top_down_run = spent();
  EXPECT_EQ(TopDownSpecialize(data, hierarchies, GreedyWalkConfig{2, {}},
                              ProxyLoss, &top_down_run)
                .status()
                .ToString(),
            want);
  RunContext bottom_up_run = spent();
  EXPECT_EQ(BottomUpGeneralize(data, hierarchies, GreedyWalkConfig{2, {}},
                               ProxyLoss, &bottom_up_run)
                .status()
                .ToString(),
            want);
  RunContext incognito_run = spent();
  EXPECT_EQ(IncognitoAnonymize(data, hierarchies, IncognitoConfig{2, {}},
                               ProxyLoss, &incognito_run)
                .status()
                .ToString(),
            want);
}

TEST(BudgetTest, ClusteringFoldsLeftoversIntoCompleteClusters) {
  RunContext run;
  run.set_max_steps(3);  // Roughly one complete cluster on Table1.
  auto result = KMemberClusterAnonymize(Data(), ClusteringConfig{2}, &run);
  ExpectBudgetOutcome(result, "clustering");
  if (result.ok()) {
    double min_ec =
        KAnonymity(1).Measure(result->anonymization, result->partition);
    EXPECT_GE(min_ec, 2.0);  // Folding never breaks k-anonymity.
  }
}

TEST(BudgetTest, ClusteringZeroBudgetIsCleanStatus) {
  RunContext run;
  run.set_max_steps(0);
  auto result = KMemberClusterAnonymize(Data(), ClusteringConfig{2}, &run);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsBudgetError());
}

// The acceptance bar from the issue: a deliberately large lattice search
// hits its wall-clock deadline and comes back within 2x of the requested
// deadline, instead of running for seconds.
TEST(BudgetTest, HugeLatticeSearchHonorsDeadline) {
  CensusConfig census_config;
  census_config.rows = 2000;
  census_config.seed = 97;
  census_config.with_occupation = true;  // 5 QIs: ~thousands of nodes.
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());

  constexpr int64_t kDeadlineMs = 100;
  RunContext run;
  run.set_deadline_ms(kDeadlineMs);
  OptimalSearchConfig config;
  config.k = 5;
  auto start = std::chrono::steady_clock::now();
  auto result = OptimalLatticeSearch(census->data, census->hierarchies,
                                     config, ProxyLoss, &run);
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  // The search cannot finish a 2000-row, five-QI lattice in 100 ms; it
  // must have been cut off by the deadline, one way or the other.
  if (result.ok()) {
    EXPECT_TRUE(result->run_stats.truncated);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_LT(elapsed_ms, 2.0 * kDeadlineMs)
      << "deadline overshoot: " << elapsed_ms << " ms";
}

TEST(BudgetTest, CancellationStopsARunningSearch) {
  CensusConfig census_config;
  census_config.rows = 1000;
  census_config.seed = 31;
  census_config.with_occupation = true;
  auto census = GenerateCensus(census_config);
  ASSERT_TRUE(census.ok());

  CancellationToken token;
  RunContext run;
  run.set_cancellation(token);
  OptimalSearchConfig config;
  config.k = 5;

  // Cancel shortly after the search starts; the searching thread must
  // observe it at its next budget check and stop early.
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.Cancel();
  });
  auto result = OptimalLatticeSearch(census->data, census->hierarchies,
                                     config, ProxyLoss, &run);
  canceller.join();

  if (result.ok()) {
    EXPECT_TRUE(result->run_stats.truncated);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST(BudgetTest, RunStatsAccumulateAcrossAlgorithms) {
  RunContext run;  // Unbounded: stats only.
  auto datafly = DataflyAnonymize(Data(), Hierarchies(), DataflyConfig{3, {}},
                                  &run);
  ASSERT_TRUE(datafly.ok());
  EXPECT_GT(datafly->run_stats.steps, 0u);
  EXPECT_FALSE(datafly->run_stats.truncated);
  uint64_t after_datafly = run.steps();

  auto mondrian = MondrianAnonymize(Data(), MondrianConfig{2}, &run);
  ASSERT_TRUE(mondrian.ok());
  EXPECT_GT(mondrian->run_stats.steps, after_datafly);
}

}  // namespace
}  // namespace mdc
