// Static verification layer tests.
//
// Three families:
//  - PlanVerifier: hand-corrupted physical plans, one per invariant
//    class, each rejected with a structured Status naming the phase and
//    the violated invariant (never a crash) — plus clean runs across all
//    three rewrite strategies proving zero false positives.
//  - BytecodeVerifier: the golden expression corpus compiles and
//    verifies, then a fuzz-style single-instruction mutation sweep over
//    every compiled program must reject every guaranteed-corrupt mutant.
//  - RuleLinter: duplicate names, unsatisfiable conditions, DELETE/KEEP
//    overlap, and MODIFY correction races are reported; clean rule sets
//    are not.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/time_util.h"
#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/hash_join.h"
#include "exec/parallel.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "exec/union_all.h"
#include "exec/window.h"
#include "expr/bytecode.h"
#include "expr/eval.h"
#include "plan/planner.h"
#include "rewrite/rewriter.h"
#include "sql/parser.h"
#include "verify/bytecode_verifier.h"
#include "verify/plan_verifier.h"
#include "verify/rule_linter.h"
#include "verify/verify.h"

namespace rfid {
namespace {

class VerifyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema reads;
    reads.AddColumn("epc", DataType::kString);
    reads.AddColumn("rtime", DataType::kTimestamp);
    reads.AddColumn("reader", DataType::kString);
    reads.AddColumn("biz_loc", DataType::kString);
    case_r_ = db_.CreateTable("caseR", reads).value();

    Schema locs;
    locs.AddColumn("gln", DataType::kString);
    locs.AddColumn("site", DataType::kString);
    locs_ = db_.CreateTable("locs", locs).value();

    ASSERT_TRUE(
        locs_->Append({Value::String("locA"), Value::String("dc1")}).ok());
    ASSERT_TRUE(
        locs_->Append({Value::String("locB"), Value::String("store1")}).ok());

    const char* readers[] = {"r1", "r2", "readerX"};
    const char* glns[] = {"locA", "locB", "locA"};
    for (int e = 0; e < 4; ++e) {
      for (int i = 0; i < 6; ++i) {
        ASSERT_TRUE(case_r_
                        ->Append({Value::String("e" + std::to_string(e)),
                                  Value::Timestamp(Minutes(3 * i + e)),
                                  Value::String(readers[(e + i) % 3]),
                                  Value::String(glns[(e + 2 * i) % 3])})
                        .ok());
      }
    }
    ASSERT_TRUE(case_r_->BuildIndex("rtime").ok());
    ASSERT_TRUE(case_r_->BuildIndex("epc").ok());
    case_r_->ComputeStats();
    locs_->ComputeStats();

    engine_ = std::make_unique<CleansingRuleEngine>(&db_);
    ASSERT_TRUE(engine_
                    ->DefineRule("DEFINE reader ON caseR CLUSTER BY epc "
                                 "SEQUENCE BY rtime AS (A, *B) WHERE "
                                 "B.reader = 'readerX' AND B.rtime - A.rtime "
                                 "< 5 MINUTES ACTION DELETE A")
                    .ok());
    rewriter_ = std::make_unique<QueryRewriter>(&db_, engine_.get());
  }

  void TearDown() override {
    SetVerifyForTest(-1);
    SetParallelPolicyForTest(0, 0);
  }

  // A fresh scan of caseR (4 fields: epc STRING, rtime TIMESTAMP,
  // reader STRING, biz_loc STRING).
  OperatorPtr Scan() {
    return std::make_unique<TableScanOp>(case_r_, "c");
  }

  ExprPtr Bind(const std::string& text, const RowDesc& desc) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    auto bound = BindExpr(parsed.value(), desc);
    EXPECT_TRUE(bound.ok()) << text << ": " << bound.status().ToString();
    return std::move(bound).value();
  }

  // The corrupted plan must be rejected with the phase and the named
  // invariant in the Status message — and must never crash.
  void ExpectViolation(const Operator& root, const std::string& invariant) {
    Status st = VerifyPlan(root, "test-phase", nullptr);
    ASSERT_FALSE(st.ok()) << "corrupt plan passed verification";
    EXPECT_NE(st.message().find("verify[test-phase]"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.message().find("invariant=" + invariant), std::string::npos)
        << st.ToString();
  }

  Database db_;
  Table* case_r_ = nullptr;
  Table* locs_ = nullptr;
  std::unique_ptr<CleansingRuleEngine> engine_;
  std::unique_ptr<QueryRewriter> rewriter_;
};

// ---------------------------------------------------------------------
// PlanVerifier: clean plans across every rewrite strategy.
// ---------------------------------------------------------------------

TEST_F(VerifyTest, AllRewriteStrategiesVerifyClean) {
  SetVerifyForTest(1);  // hard errors: any violation fails the query
  const std::string sql = "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'";
  std::vector<std::vector<Row>> results;
  for (RewriteStrategy strategy :
       {RewriteStrategy::kNaive, RewriteStrategy::kExpanded,
        RewriteStrategy::kJoinBack}) {
    RewriteOptions opts;
    opts.strategy = strategy;
    auto info = rewriter_->Rewrite(sql, opts);
    ASSERT_TRUE(info.ok()) << RewriteStrategyName(strategy) << ": "
                           << info.status().ToString();
    auto res = ExecuteSql(db_, info.value().sql);
    ASSERT_TRUE(res.ok()) << RewriteStrategyName(strategy) << ": "
                          << res.status().ToString();
    results.push_back(res.value().rows);
  }
  EXPECT_EQ(results[0].size(), results[1].size());
  EXPECT_EQ(results[0].size(), results[2].size());
}

TEST_F(VerifyTest, WellFormedOperatorTreeVerifies) {
  OperatorPtr scan = Scan();
  const RowDesc desc = scan->output_desc();
  auto filter =
      std::make_unique<FilterOp>(std::move(scan), Bind("biz_loc = 'locA'", desc));
  EXPECT_TRUE(VerifyPlan(*filter, "test-phase", nullptr).ok());
}

// ---------------------------------------------------------------------
// PlanVerifier: corruption classes. Each test is one distinct class.
// ---------------------------------------------------------------------

// Class 1: column reference bound to a slot outside the input row.
TEST_F(VerifyTest, RejectsColumnRefSlotOutOfRange) {
  OperatorPtr scan = Scan();
  ExprPtr pred = Bind("biz_loc = 'locA'", scan->output_desc());
  pred->children[0]->slot = 99;
  auto filter = std::make_unique<FilterOp>(std::move(scan), std::move(pred));
  ExpectViolation(*filter, "column-ref-bound");
}

// Class 2: column reference whose declared type disagrees with the slot.
TEST_F(VerifyTest, RejectsColumnRefTypeMismatch) {
  OperatorPtr scan = Scan();
  ExprPtr pred = Bind("biz_loc = 'locA'", scan->output_desc());
  pred->children[0]->slot = 1;  // rtime: TIMESTAMP, but bound as STRING
  auto filter = std::make_unique<FilterOp>(std::move(scan), std::move(pred));
  ExpectViolation(*filter, "column-ref-bound");
}

// Class 3: sort key slot outside the input row.
TEST_F(VerifyTest, RejectsSortKeyOutOfRange) {
  auto sort = std::make_unique<SortOp>(Scan(),
                                       std::vector<SlotSortKey>{{99, true}});
  ExpectViolation(*sort, "sort-keys");
}

// Class 4: window operator fed input that lacks its required
// (PARTITION BY, ORDER BY) ordering.
TEST_F(VerifyTest, RejectsWindowWithoutRequiredOrdering) {
  std::vector<WindowAggSpec> aggs(1);
  aggs[0].func = AggFunc::kCount;
  aggs[0].arg = nullptr;  // COUNT(*)
  aggs[0].output_name = "c";
  aggs[0].result_type = DataType::kInt64;
  auto window = std::make_unique<WindowOp>(
      Scan(), std::vector<size_t>{0}, std::vector<SlotSortKey>{{1, true}},
      std::move(aggs));
  ExpectViolation(*window, "window-ordering");
}

// The same window over a Sort(partition, order) child is legal — the
// ordering propagation must recognize the sort as satisfying it.
TEST_F(VerifyTest, AcceptsWindowOverMatchingSort) {
  auto sort = std::make_unique<SortOp>(
      Scan(), std::vector<SlotSortKey>{{0, true}, {1, true}});
  std::vector<WindowAggSpec> aggs(1);
  aggs[0].func = AggFunc::kCount;
  aggs[0].output_name = "c";
  aggs[0].result_type = DataType::kInt64;
  auto window = std::make_unique<WindowOp>(
      std::move(sort), std::vector<size_t>{0},
      std::vector<SlotSortKey>{{1, true}}, std::move(aggs));
  EXPECT_TRUE(VerifyPlan(*window, "test-phase", nullptr).ok());
}

// Class 5: hash join with mismatched key counts.
TEST_F(VerifyTest, RejectsJoinKeyCountMismatch) {
  auto join = std::make_unique<HashJoinOp>(
      Scan(), Scan(), std::vector<size_t>{0}, std::vector<size_t>{0, 1},
      JoinType::kInner);
  ExpectViolation(*join, "join-keys");
}

// Class 6: hash join keys with incomparable types (STRING vs TIMESTAMP
// would hash-join to an always-empty result).
TEST_F(VerifyTest, RejectsJoinKeyTypeMismatch) {
  auto join = std::make_unique<HashJoinOp>(
      Scan(), Scan(), std::vector<size_t>{0}, std::vector<size_t>{1},
      JoinType::kInner);
  ExpectViolation(*join, "join-keys");
}

// Class 7: operator dop above what the parallel policy permits.
TEST_F(VerifyTest, RejectsDopAbovePolicy) {
  SetParallelPolicyForTest(1, 0);
  auto scan = std::make_unique<ParallelTableScanOp>(case_r_, "c", nullptr,
                                                    /*dop=*/4);
  ExpectViolation(*scan, "dop-bounds");
}

// Class 8: a ParallelTableScan the planner would never build (dop < 2).
TEST_F(VerifyTest, RejectsSerialParallelScan) {
  auto scan = std::make_unique<ParallelTableScanOp>(case_r_, "c", nullptr,
                                                    /*dop=*/1);
  ExpectViolation(*scan, "dop-bounds");
}

// Class 9: index scan holding a foreign index (an index of a different
// table — the read path would surface the wrong rows).
TEST_F(VerifyTest, RejectsForeignIndexPointer) {
  Schema other;
  other.AddColumn("epc", DataType::kString);
  Table* shadow = db_.CreateTable("shadow", other).value();
  ASSERT_TRUE(shadow->Append({Value::String("e0")}).ok());
  ASSERT_TRUE(shadow->BuildIndex("epc").ok());
  auto scan = std::make_unique<IndexRangeScanOp>(
      case_r_, shadow->GetIndex("epc"), "c", std::nullopt, std::nullopt);
  ExpectViolation(*scan, "snapshot-index");
}

// Class 10: index scan holding a stale index (built before the last
// mutation — it would miss or misplace rows).
TEST_F(VerifyTest, RejectsStaleIndexPointer) {
  const SortedIndex* index = case_r_->GetIndex("epc");
  ASSERT_NE(index, nullptr);
  // Appending invalidates the index; the scan still holds the old pointer.
  ASSERT_TRUE(case_r_
                  ->Append({Value::String("e9"), Value::Timestamp(Minutes(99)),
                            Value::String("r1"), Value::String("locA")})
                  .ok());
  ASSERT_EQ(case_r_->GetIndex("epc"), nullptr);
  auto scan = std::make_unique<IndexRangeScanOp>(case_r_, index, "c",
                                                 std::nullopt, std::nullopt);
  ExpectViolation(*scan, "snapshot-index");
}

// Class 11: projection whose expression count disagrees with its
// declared output schema.
TEST_F(VerifyTest, RejectsProjectArityMismatch) {
  OperatorPtr scan = Scan();
  const RowDesc in = scan->output_desc();
  std::vector<ExprPtr> exprs;
  exprs.push_back(Bind("epc", in));
  RowDesc out;
  out.AddField("", "epc", DataType::kString);
  out.AddField("", "ghost", DataType::kInt64);
  auto project =
      std::make_unique<ProjectOp>(std::move(scan), std::move(exprs), out);
  ExpectViolation(*project, "output-schema");
}

// Class 12: UNION ALL over inputs of differing arity.
TEST_F(VerifyTest, RejectsUnionArityMismatch) {
  std::vector<OperatorPtr> inputs;
  inputs.push_back(Scan());  // 4 fields
  inputs.push_back(std::make_unique<TableScanOp>(locs_, "l"));  // 2 fields
  auto u = std::make_unique<UnionAllOp>(std::move(inputs));
  ExpectViolation(*u, "output-schema");
}

// Class 13: a non-COUNT aggregate with no argument expression.
TEST_F(VerifyTest, RejectsArglessNonCountAggregate) {
  std::vector<AggSpec> aggs(1);
  aggs[0].func = AggFunc::kSum;
  aggs[0].arg = nullptr;
  aggs[0].result_type = DataType::kInt64;
  RowDesc out;
  out.AddField("", "s", DataType::kInt64);
  auto agg = std::make_unique<HashAggregateOp>(Scan(), std::vector<ExprPtr>{},
                                               std::move(aggs), out);
  ExpectViolation(*agg, "output-schema");
}

// Class 14: operator with a missing required input piece.
TEST_F(VerifyTest, RejectsFilterWithoutPredicate) {
  auto filter = std::make_unique<FilterOp>(Scan(), nullptr);
  ExpectViolation(*filter, "null-child");
}

// ---------------------------------------------------------------------
// BytecodeVerifier.
// ---------------------------------------------------------------------

RowDesc CorpusDesc() {
  RowDesc d;
  d.AddField("t", "a", DataType::kInt64);
  d.AddField("t", "b", DataType::kInt64);
  d.AddField("t", "x", DataType::kDouble);
  d.AddField("t", "s", DataType::kString);
  d.AddField("t", "ts", DataType::kTimestamp);
  return d;
}

// Well-typed expressions over CorpusDesc covering every opcode the
// compiler emits (the golden corpus of expr_golden_test, abridged).
const char* const kCorpus[] = {
    "a + b", "a / b", "x * 2", "a < b", "s = 'abc'", "ts < TIMESTAMP 1000",
    "a < b AND b < 10", "a < b OR b < 10", "NOT a = b", "a IS NULL",
    "a IS NOT NULL", "a BETWEEN 0 AND 5", "a IN (1, 2, 3)",
    "a NOT IN (1, NULL)", "s IN ('abc', 'xyz')",
    "CASE WHEN a < b THEN a ELSE b END",
    "CASE WHEN a IS NULL THEN 0 WHEN a > 5 THEN 1 END",
    "coalesce(a, b, 0)", "s LIKE 'a%'", "s NOT LIKE '%z%'",
    "(a + b) * 2 > 10 OR s LIKE 'x%'",
};

class BytecodeVerifierTest : public ::testing::Test {
 protected:
  // Compiles `text` bound over CorpusDesc; nullopt when the compiler
  // declines (those expressions fall back to the interpreter and are
  // outside the verifier's scope).
  std::optional<ExprProgram> Compile(const std::string& text) {
    auto parsed = ParseExpression(text);
    EXPECT_TRUE(parsed.ok()) << text;
    auto bound = BindExpr(parsed.value(), desc_);
    EXPECT_TRUE(bound.ok()) << text;
    auto compiled = ExprProgram::Compile(*bound.value());
    if (!compiled.ok()) return std::nullopt;
    return std::move(compiled).value();
  }

  RowDesc desc_ = CorpusDesc();
};

TEST_F(BytecodeVerifierTest, GoldenCorpusVerifies) {
  size_t compiled_count = 0;
  for (const char* text : kCorpus) {
    std::optional<ExprProgram> p = Compile(text);
    if (!p.has_value()) continue;
    ++compiled_count;
    Status st = VerifyProgram(*p, desc_);
    EXPECT_TRUE(st.ok()) << text << ": " << st.ToString();
  }
  // The corpus is chosen to compile; if the compiler starts declining
  // everything this test would silently verify nothing.
  EXPECT_GT(compiled_count, 15u);
}

TEST_F(BytecodeVerifierTest, RejectsEmptyProgram) {
  Status st = VerifyBytecode(BytecodeImage{}, desc_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("invariant=non-empty"), std::string::npos);
}

TEST_F(BytecodeVerifierTest, RejectsStackUnderflow) {
  BytecodeImage image;
  image.code.push_back({BcOp::kNot, 0, 0, DataType::kBool});
  image.max_stack = 1;
  Status st = VerifyBytecode(image, desc_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("invariant=stack-underflow"), std::string::npos);
}

TEST_F(BytecodeVerifierTest, RejectsUnbalancedStack) {
  BytecodeImage image;
  image.code.push_back({BcOp::kLoadCol, 0, 0, DataType::kInt64});
  image.code.push_back({BcOp::kLoadCol, 1, 0, DataType::kInt64});
  image.max_stack = 2;
  Status st = VerifyBytecode(image, desc_);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("invariant=stack-balance"), std::string::npos);
}

// Fuzz-style sweep: for every compiled corpus program, apply every
// guaranteed-corrupt single-instruction mutation and require rejection.
// Mutations are chosen so a correct verifier can never accept them:
// unknown opcode bytes, pool indices far out of range, invalid operator
// codes and flags, and a zeroed register budget.
TEST_F(BytecodeVerifierTest, MutationSweepRejectsEveryCorruption) {
  size_t mutations = 0;
  for (const char* text : kCorpus) {
    std::optional<ExprProgram> p = Compile(text);
    if (!p.has_value()) continue;
    const BytecodeImage original = p->Image();
    ASSERT_TRUE(VerifyBytecode(original, desc_).ok()) << text;

    auto expect_rejected = [&](const BytecodeImage& mutant, size_t idx,
                               const char* what) {
      ++mutations;
      Status st = VerifyBytecode(mutant, desc_);
      EXPECT_FALSE(st.ok()) << text << ": instruction " << idx << ": " << what
                            << " was accepted";
    };

    for (size_t i = 0; i < original.code.size(); ++i) {
      const BcInst inst = original.code[i];
      {
        BytecodeImage m = original;
        m.code[i].op = static_cast<BcOp>(255);
        expect_rejected(m, i, "opcode byte 255");
      }
      switch (inst.op) {
        case BcOp::kLoadCol:
        case BcOp::kLoadConst: {
          BytecodeImage m = original;
          m.code[i].a = inst.a + 1000000;
          expect_rejected(m, i, "pool index far out of range");
          m = original;
          m.code[i].a = -1;
          expect_rejected(m, i, "negative pool index");
          break;
        }
        case BcOp::kCompare:
        case BcOp::kArith: {
          BytecodeImage m = original;
          m.code[i].a = 99;
          expect_rejected(m, i, "invalid operator code");
          break;
        }
        case BcOp::kCase: {
          BytecodeImage m = original;
          m.code[i].b = 5;
          expect_rejected(m, i, "has_else flag 5");
          m = original;
          m.code[i].a = 0;
          expect_rejected(m, i, "zero WHEN/THEN pairs");
          break;
        }
        case BcOp::kIsNull: {
          BytecodeImage m = original;
          m.code[i].b = 5;
          expect_rejected(m, i, "negation flag 5");
          break;
        }
        case BcOp::kInValueSet: {
          BytecodeImage m = original;
          m.code[i].a = 1000000;
          expect_rejected(m, i, "set index out of range");
          break;
        }
        case BcOp::kInList:
        case BcOp::kCoalesce: {
          BytecodeImage m = original;
          m.code[i].a = 0;
          expect_rejected(m, i, "zero arity");
          break;
        }
        default:
          break;
      }
    }

    bool has_load = false;
    for (const BcInst& inst : original.code) {
      if (inst.op == BcOp::kLoadCol || inst.op == BcOp::kLoadConst) {
        has_load = true;
      }
    }
    if (has_load && original.max_stack > 0) {
      BytecodeImage m = original;
      m.max_stack = 0;
      expect_rejected(m, 0, "max_stack zeroed");
    }
  }
  // The sweep must have actually exercised a broad mutant population.
  EXPECT_GT(mutations, 100u);
}

TEST_F(BytecodeVerifierTest, FilterProgramConjunctsVerify) {
  auto parsed = ParseExpression("a < b AND s = 'abc' AND x > 0");
  ASSERT_TRUE(parsed.ok());
  auto bound = BindExpr(parsed.value(), desc_);
  ASSERT_TRUE(bound.ok());
  auto compiled = FilterProgram::Compile(*bound.value());
  ASSERT_TRUE(compiled.ok());
  EXPECT_TRUE(VerifyProgram(compiled.value(), desc_).ok());
}

TEST_F(BytecodeVerifierTest, CompileVerifiedReturnsProgramWhenClean) {
  SetVerifyForTest(1);
  auto parsed = ParseExpression("a + b");
  ASSERT_TRUE(parsed.ok());
  auto bound = BindExpr(parsed.value(), desc_);
  ASSERT_TRUE(bound.ok());
  auto result = CompileVerified(*bound.value(), desc_, "test");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().has_value());
  SetVerifyForTest(-1);
}

TEST_F(BytecodeVerifierTest, ModeSwitchesResolve) {
  SetVerifyForTest(1);
  EXPECT_TRUE(VerifyEnabled());
  EXPECT_FALSE(VerifySoftMode());
  SetVerifyForTest(2);
  EXPECT_TRUE(VerifyEnabled());
  EXPECT_TRUE(VerifySoftMode());
  SetVerifyForTest(0);
  EXPECT_FALSE(VerifyEnabled());
  SetVerifyForTest(-1);
}

// ---------------------------------------------------------------------
// RuleLinter.
// ---------------------------------------------------------------------

ExprPtr ParseCondition(const std::string& text) {
  auto parsed = ParseExpression(text);
  EXPECT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  return parsed.ok() ? std::move(parsed).value() : nullptr;
}

CleansingRule MakeRule(const std::string& name, RuleAction action,
                       const std::string& condition) {
  CleansingRule r;
  r.name = name;
  r.on_table = "caseR";
  r.ckey = "epc";
  r.skey = "rtime";
  r.pattern = {{"A", false}, {"B", true}};
  r.condition = ParseCondition(condition);
  r.action = action;
  r.target = "A";
  return r;
}

bool HasFinding(const std::vector<LintFinding>& findings,
                const std::string& code) {
  for (const LintFinding& f : findings) {
    if (f.code == code) return true;
  }
  return false;
}

TEST(RuleLinterTest, CleanRuleSetHasNoFindings) {
  std::vector<CleansingRule> rules;
  rules.push_back(MakeRule("reader", RuleAction::kDelete,
                           "B.reader = 'readerX' AND B.rtime > 100"));
  EXPECT_TRUE(LintRules(rules).empty());
}

TEST(RuleLinterTest, ReportsDuplicateNames) {
  std::vector<CleansingRule> rules;
  rules.push_back(MakeRule("reader", RuleAction::kDelete, "B.rtime > 100"));
  rules.push_back(MakeRule("READER", RuleAction::kDelete, "B.rtime < 50"));
  std::vector<LintFinding> findings = LintRules(rules);
  EXPECT_TRUE(HasFinding(findings, "duplicate-name"));
}

TEST(RuleLinterTest, ReportsConstantFalseConjunct) {
  std::vector<CleansingRule> rules;
  rules.push_back(
      MakeRule("dead", RuleAction::kDelete, "B.reader = 'readerX' AND 1 = 2"));
  std::vector<LintFinding> findings = LintRules(rules);
  ASSERT_TRUE(HasFinding(findings, "unsatisfiable-condition"));
}

TEST(RuleLinterTest, ReportsEmptyIntervalConjunction) {
  std::vector<CleansingRule> rules;
  rules.push_back(MakeRule("dead", RuleAction::kDelete,
                           "B.rtime > 100 AND B.rtime < 50"));
  std::vector<LintFinding> findings = LintRules(rules);
  ASSERT_TRUE(HasFinding(findings, "unsatisfiable-condition"));
}

TEST(RuleLinterTest, EquivalentBoundsAreSatisfiable) {
  std::vector<CleansingRule> rules;
  rules.push_back(MakeRule("alive", RuleAction::kDelete,
                           "B.rtime >= 100 AND B.rtime <= 100"));
  EXPECT_FALSE(HasFinding(LintRules(rules), "unsatisfiable-condition"));
}

TEST(RuleLinterTest, ReportsDeleteKeepOverlap) {
  std::vector<CleansingRule> rules;
  rules.push_back(MakeRule("drop_x", RuleAction::kDelete,
                           "B.reader = 'readerX' AND B.rtime > 100"));
  rules.push_back(MakeRule("keep_x", RuleAction::kKeep,
                           "B.reader = 'readerX' AND B.rtime > 200"));
  std::vector<LintFinding> findings = LintRules(rules);
  EXPECT_TRUE(HasFinding(findings, "delete-keep-overlap"));
}

TEST(RuleLinterTest, DisjointDeleteKeepIsClean) {
  std::vector<CleansingRule> rules;
  rules.push_back(
      MakeRule("drop_lo", RuleAction::kDelete, "B.rtime < 100"));
  rules.push_back(MakeRule("keep_hi", RuleAction::kKeep, "B.rtime > 200"));
  EXPECT_FALSE(HasFinding(LintRules(rules), "delete-keep-overlap"));
}

TEST(RuleLinterTest, ReportsCorrectionOrderRace) {
  CleansingRule a = MakeRule("fix1", RuleAction::kModify, "B.rtime > 100");
  a.assignments.push_back({"biz_loc", ParseCondition("'loc1'")});
  CleansingRule b = MakeRule("fix2", RuleAction::kModify, "B.rtime > 50");
  b.assignments.push_back({"BIZ_LOC", ParseCondition("'loc2'")});
  std::vector<CleansingRule> rules;
  rules.push_back(std::move(a));
  rules.push_back(std::move(b));
  std::vector<LintFinding> findings = LintRules(rules);
  EXPECT_TRUE(HasFinding(findings, "correction-order"));
}

TEST(RuleLinterTest, LintRulesForScopesToTable) {
  std::vector<CleansingRule> rules;
  rules.push_back(MakeRule("dead", RuleAction::kDelete, "1 = 2"));
  CleansingRule other = MakeRule("other_dead", RuleAction::kDelete, "1 = 2");
  other.on_table = "pallets";
  rules.push_back(std::move(other));
  std::vector<LintFinding> scoped = LintRulesFor(rules, "caseR");
  ASSERT_EQ(scoped.size(), 1u);
  EXPECT_EQ(scoped[0].rule, "dead");
  EXPECT_EQ(scoped[0].code, "unsatisfiable-condition");
  EXPECT_NE(scoped[0].ToString().find("LINT"), std::string::npos);
}

// End-to-end: the rewriter carries lint findings for the cleansed table
// so EXPLAIN and rfidsql can surface them next to the chosen rewrite.
TEST_F(VerifyTest, RewriteInfoCarriesLintFindings) {
  ASSERT_TRUE(engine_
                  ->DefineRule("DEFINE keeper ON caseR CLUSTER BY epc "
                               "SEQUENCE BY rtime AS (A, *B) WHERE "
                               "B.reader = 'readerX' AND B.rtime - A.rtime "
                               "< 9 MINUTES ACTION KEEP A")
                  .ok());
  RewriteOptions opts;
  opts.strategy = RewriteStrategy::kNaive;
  auto info = rewriter_->Rewrite(
      "SELECT epc, rtime FROM caseR WHERE biz_loc = 'locA'", opts);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(HasFinding(info.value().lint, "delete-keep-overlap"));
}

}  // namespace
}  // namespace rfid
