#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ctrl/control_plan.hpp"
#include "exp/thread_pool.hpp"
#include "fault/fault_plan.hpp"
#include "net/scenario.hpp"
#include "obs/report.hpp"

namespace pds {
namespace {

const char* kValid = R"(
# A two-hop chain with a renewal source and a short CBR flow.
link a capacity=39.375 sched=wtp sdp=1,2,4,8
link b capacity=39.375 sched=wtp sdp=1,2,4,8
route chain a b
source renewal chain class=0 gap=30 size=441 pareto=1.9
source cbr chain class=3 count=50 size=441 interval=20 start=10000
run until=50000 warmup=5000 seed=3
)";

// ----------------------------------------------------------------- parsing

TEST(ScenarioParse, AcceptsTheReferenceScenario) {
  const auto s = parse_scenario(kValid);
  ASSERT_EQ(s.links.size(), 2u);
  EXPECT_EQ(s.links[0].name, "a");
  EXPECT_EQ(s.links[0].kind, SchedulerKind::kWtp);
  ASSERT_EQ(s.links[0].sdp.size(), 4u);
  ASSERT_EQ(s.routes.size(), 1u);
  EXPECT_EQ(s.routes[0].links, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(s.sources.size(), 2u);
  EXPECT_EQ(s.sources[0].kind, ScenarioSourceKind::kRenewal);
  EXPECT_DOUBLE_EQ(s.sources[0].pareto_alpha, 1.9);
  EXPECT_EQ(s.sources[1].kind, ScenarioSourceKind::kCbr);
  EXPECT_DOUBLE_EQ(s.sources[1].start, 10000.0);
  EXPECT_DOUBLE_EQ(s.run.until, 50000.0);
  EXPECT_EQ(s.run.seed, 3u);
}

TEST(ScenarioParse, PoissonFlagSelectsExponentialGaps) {
  const auto s = parse_scenario(
      "link a capacity=10 sched=fcfs sdp=1\n"
      "route r a\n"
      "source renewal r class=0 gap=5 size=100 poisson\n"
      "run until=100\n");
  EXPECT_DOUBLE_EQ(s.sources[0].pareto_alpha, 0.0);
}

TEST(ScenarioParse, CommentsAndBlankLinesIgnored) {
  EXPECT_NO_THROW(parse_scenario(
      "# header\n\nlink a capacity=10 sched=fcfs sdp=1\n"
      "route r a   # inline comment\n"
      "source renewal r class=0 gap=5 size=100\n"
      "run until=10\n"));
}

TEST(ScenarioParse, RejectsUnknownDirective) {
  try {
    parse_scenario("frobnicate x\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(ScenarioParse, RejectsDanglingReferences) {
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a b\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a\n"
                              "source renewal other class=0 gap=5 size=9\n"),
               std::invalid_argument);
}

TEST(ScenarioParse, RejectsDuplicatesAndMissingSections) {
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "link a capacity=10 sched=fcfs sdp=1\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario(""), std::invalid_argument);
  // No run directive.
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a\n"
                              "source renewal r class=0 gap=5 size=9\n"),
               std::invalid_argument);
  // No sources.
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1\n"
                              "route r a\nrun until=10\n"),
               std::invalid_argument);
}

TEST(ScenarioParse, RejectsUnknownOrMissingOptions) {
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=fcfs sdp=1 bogus=1\n"
                              "route r a\n"
                              "source renewal r class=0 gap=5 size=9\n"
                              "run until=10\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("link a sched=fcfs sdp=1\n"),  // no capacity
               std::invalid_argument);
  EXPECT_THROW(parse_scenario("link a capacity=ten sched=fcfs sdp=1\n"),
               std::invalid_argument);
}

// ------------------------------------------------------------- error paths

// Parse and return the thrown message ("" when nothing threw).
std::string parse_error(const std::string& text) {
  try {
    parse_scenario(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ScenarioErrors, MalformedLinkLinesNameTheirLine) {
  EXPECT_NE(parse_error("# header\nlink\n")
                .find("scenario line 2: link needs a name"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=ten sched=fcfs sdp=1\n")
                .find("scenario line 1: malformed number: ten"),
            std::string::npos);
  EXPECT_NE(parse_error("link a sched=fcfs sdp=1\n")
                .find("line 1: missing required option capacity=..."),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1,,2\n")
                .find("line 1: empty element in sdp"),
            std::string::npos);
}

TEST(ScenarioErrors, MalformedSourceLinesNameTheirLine) {
  const char* prefix =
      "link a capacity=10 sched=fcfs sdp=1\n"
      "route r a\n";
  EXPECT_NE(parse_error(std::string(prefix) + "source renewal\n")
                .find("scenario line 3: source needs a kind and route"),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(prefix) + "source teleport r class=0\n")
                .find("scenario line 3: unknown source kind teleport"),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(prefix) +
                        "source renewal r class=0 gap=5 size=100 warp=9\n")
                .find("scenario line 3: unknown option warp"),
            std::string::npos);
}

TEST(ScenarioErrors, MalformedRunLinesNameTheirLine) {
  const char* prefix =
      "link a capacity=10 sched=fcfs sdp=1\n"
      "route r a\n"
      "source renewal r class=0 gap=5 size=100\n";
  EXPECT_NE(parse_error(std::string(prefix) + "run warmup=5\n")
                .find("scenario line 4: missing required option until=..."),
            std::string::npos);
  EXPECT_NE(parse_error(std::string(prefix) + "run until=10\nrun until=20\n")
                .find("scenario line 5: duplicate run directive"),
            std::string::npos);
}

// Numbers must be finite and integer options must be integers in range.
// Every bad value below is a line-numbered std::invalid_argument from the
// parser: never a bare std::out_of_range, a contract check that names a
// source file, a silently truncated or wrapped value, or a run on nonsense.
TEST(ScenarioErrors, NonFiniteNumbersAndBadIntegersNameTheirLine) {
  const std::string head =
      "link a capacity=39.375 sched=wtp sdp=1,2,4,8\n"
      "route r a\n";
  const std::string src = "source renewal r class=0 gap=30 size=441\n";
  const std::string flows = "flows r class=0 users=2 size=441 think=10 "
                            "reverse=r rto=50 ";
  struct Case {
    std::string text;
    std::size_t line;
  };
  const std::vector<Case> cases = {
      {"link a capacity=1e999 sched=wtp sdp=1,2\n", 1},
      {"link a capacity=1e-400 sched=wtp sdp=1,2\n", 1},
      {"# comment\nlink a capacity=nan sched=wtp sdp=1,2\n", 2},
      {"link a capacity=inf sched=wtp sdp=1,2\n", 1},
      {"topology ring n=3 capacity=-inf sched=wtp sdp=1,2\n", 1},
      {"link a capacity=10 sched=wtp sdp=1,nan\n", 1},
      {head + "source renewal r class=0 gap=30 size=-5\n", 3},
      {head + "source renewal r class=0 gap=30 size=0.5\n", 3},
      {head + "source renewal r class=0 gap=30 size=5e9\n", 3},
      {head + "source renewal r class=1.5 gap=30 size=441\n", 3},
      {head + "source mix r fractions=1,inf gap=30 size=441\n", 3},
      {head + "source cbr r class=-1 count=5 size=441 interval=5\n", 3},
      {head + "source cbr r class=0 count=0 size=441 interval=5\n", 3},
      {head + "source cbr r class=0 count=2.5 size=441 interval=5\n", 3},
      {head + flows + "request=0.5\n", 3},
      {head + flows + "response=-1\n", 3},
      {head + flows + "retries=2.5\n", 3},
      {head + flows + "retries=-1\n", 3},
      {head + src + "run until=nan\n", 4},
      {head + src + "run until=10 warmup=20\n", 4},
  };
  for (const Case& c : cases) {
    const std::string prefix =
        "scenario line " + std::to_string(c.line) + ": ";
    try {
      parse_scenario(c.text);
      ADD_FAILURE() << "accepted:\n" << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
          << e.what() << "\nfor:\n" << c.text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not std::invalid_argument: " << e.what()
                    << "\nfor:\n" << c.text;
    }
  }
}

// Finite values outside an option's domain are line-numbered parse errors
// that mirror the contract check the run would otherwise stop in (link
// capacity, gap samplers, SDP ordering, class queues per link, RPC timers,
// seed conversion).
TEST(ScenarioErrors, OutOfDomainValuesNameTheirLine) {
  const std::string head =
      "link a capacity=39.375 sched=wtp sdp=1,2,4,8\n"
      "route r a\n";
  const std::string src = "source renewal r class=0 gap=30 size=441\n";
  const std::string flows = "flows r class=0 users=2 size=441 think=10 "
                            "reverse=r ";
  const std::string graph =
      "topology ring n=4 capacity=39.375 sched=wtp sdp=1,2\n"
      "route east from=n0 to=n2\n";
  // Class checks run once the whole file is read.
  const std::string run = "run until=10\n";
  struct Case {
    std::string text;
    std::size_t line;
  };
  const std::vector<Case> cases = {
      {"link a capacity=0 sched=wtp sdp=1,2\n", 1},
      {"link a capacity=-3 sched=wtp sdp=1,2\n", 1},
      {"topology line n=3 capacity=0 sched=wtp sdp=1,2\n", 1},
      {"node x\nnode y\nedge e from=x to=y capacity=0 sched=wtp sdp=1\n",
       3},
      {"link a capacity=10 sched=wtp sdp=0,2,4,8\n", 1},
      {"link a capacity=10 sched=wtp sdp=-1,2\n", 1},
      {"link a capacity=10 sched=wtp sdp=1,4,2\n", 1},
      {"topology ring n=3 capacity=10 sched=hpd sdp=8,4,2,1\n", 1},
      {"link a capacity=10 sched=warp sdp=1\n", 1},
      {head + "source renewal r class=0 gap=0 size=441\n", 3},
      {head + "source renewal r class=0 gap=-2 size=441 poisson\n", 3},
      {head + "source renewal r class=0 gap=30 size=441 pareto=1\n", 3},
      {head + "source renewal r class=0 gap=30 size=441 pareto=0\n", 3},
      {head + "source mix r fractions=1,2 gap=0 size=441\n", 3},
      {head + "source mix r fractions=1,-2 gap=30 size=441\n", 3},
      {head + "source mix r fractions=0,0 gap=30 size=441\n", 3},
      {head + "source cbr r class=0 count=5 size=441 interval=0\n", 3},
      {head + "source renewal r class=0 gap=30 size=441 start=-1\n", 3},
      {head + "source renewal r class=4 gap=30 size=441\n" + run, 3},
      {head + "source cbr r class=9 count=5 size=441 interval=5\n" + run, 3},
      {head + "source mix r fractions=1,1,1,1,1 gap=30 size=441\n" + run,
       3},
      {head + "# comment\n" + flows + "class=4\n" + run, 4},
      {head + flows + "deadline=-1\n", 3},
      {head + flows + "rto=-1\n", 3},
      {head + flows + "rto=5 rto_cap=-1\n", 3},
      {head + flows + "throttle=-1\n", 3},
      {head + flows + "throttle=4 throttle_ratio=0\n", 3},
      {head + flows + "start=-5\n", 3},
      // The class check follows the whole path, and routed paths are
      // resolved over the complete graph.
      {"link a capacity=10 sched=wtp sdp=1,2,4\n"
       "link b capacity=10 sched=wtp sdp=1,2\n"
       "route r a b\n"
       "source renewal r class=2 gap=30 size=441\n" + run,
       4},
      {graph + "flows east class=2 users=1 size=441 think=10\n" + run, 3},
      {graph + "source renewal east class=3 gap=30 size=441\n" + run, 3},
      {"topology ring n=4 capacity=39.375 sched=wtp sdp=1,2,4\n"
       "link x capacity=10 sched=wtp sdp=1\n"
       "route fwd x\n"
       "route east from=n0 to=n2\n"
       "flows east class=1 users=1 size=441 think=10 reverse=fwd\n" + run,
       5},
      {head + src + "run until=10 warmup=-1\n", 4},
      {head + src + "run until=-1\n", 4},
      {head + src + "run until=10 seed=-1\n", 4},
      {head + src + "run until=10 seed=1e300\n", 4},
      {head + src + "run until=10 seed=2.5\n", 4},
      {head + src + "run until=10 seed=9007199254740994\n", 4},
  };
  for (const Case& c : cases) {
    const std::string prefix =
        "scenario line " + std::to_string(c.line) + ": ";
    try {
      parse_scenario(c.text);
      ADD_FAILURE() << "accepted:\n" << c.text;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
          << e.what() << "\nfor:\n" << c.text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not std::invalid_argument: " << e.what()
                    << "\nfor:\n" << c.text;
    }
  }
}

// The scenario, fault-plan and control-plan grammars share one directive
// parser: the same malformed token on an otherwise valid line gets the same
// message in each, under that grammar's own "<grammar> line N: " prefix.
TEST(Directive, SameMalformedTokenSameMessageInEveryGrammar) {
  struct Grammar {
    std::string prefix;
    std::string line;  // a valid directive the bad token is appended to
    std::function<void(const std::string&)> parse;
  };
  const std::vector<Grammar> grammars = {
      {"scenario line 2: ", "link a capacity=10 sched=wtp sdp=1,2",
       [](const std::string& text) { parse_scenario(text); }},
      {"fault plan line 2: ", "down l at=1 for=1",
       [](const std::string& text) { parse_fault_plan(text); }},
      {"control plan line 2: ", "retune l at=1 w=1,2",
       [](const std::string& text) { parse_control_plan(text); }},
  };
  struct Token {
    std::string text;
    std::string message;
  };
  const std::vector<Token> tokens = {
      {"=5", "expected key=value, got =5"},
      {"=", "expected key=value, got ="},
      {"gap=20 gap=1e9", "duplicate option gap"},
      {"k=1 k=1", "duplicate option k"},
  };
  for (const Grammar& g : grammars) {
    for (const Token& t : tokens) {
      const std::string text = "# comment\n" + g.line + " " + t.text + "\n";
      try {
        g.parse(text);
        ADD_FAILURE() << "accepted: " << text;
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()), g.prefix + t.message) << text;
      }
    }
  }
}

TEST(ScenarioErrors, DomainBoundariesStillParse) {
  const std::string head =
      "link a capacity=39.375 sched=wtp sdp=1,1,4,8\n"
      "route r a\n";
  const auto s = parse_scenario(
      head +
      "source renewal r class=3 gap=30 size=441 pareto=1.01\n"
      "source mix r fractions=0,1,0,1 gap=30 size=441\n"
      "flows r class=3 users=1 size=441 think=0 reverse=r deadline=0\n"
      "run until=10 warmup=0 seed=9007199254740992\n");
  EXPECT_EQ(s.run.seed, 9007199254740992u);
  EXPECT_EQ(parse_scenario(head +
                           "source renewal r class=0 gap=30 size=441\n"
                           "run until=10 seed=0\n")
                .run.seed,
            0u);
}

TEST(ScenarioErrors, DuplicateIdsNameTheOffendingLine) {
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "link b capacity=10 sched=fcfs sdp=1\n"
                        "link a capacity=10 sched=fcfs sdp=1\n")
                .find("scenario line 3: duplicate link name a"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "route r a\n"
                        "route r a\n")
                .find("scenario line 3: duplicate route name r"),
            std::string::npos);
}

TEST(ScenarioErrors, MissingSectionsProduceTheThreeDefinesNoThrows) {
  EXPECT_NE(parse_error("# empty but commented\n")
                .find("scenario defines no links"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "route r a\n"
                        "source renewal r class=0 gap=5 size=100\n")
                .find("scenario has no run directive"),
            std::string::npos);
  EXPECT_NE(parse_error("link a capacity=10 sched=fcfs sdp=1\n"
                        "route r a\n"
                        "run until=10\n")
                .find("scenario defines no sources"),
            std::string::npos);
}

// ------------------------------------------------------- graph-layer grammar

const char* kGraph = R"(
node a
node b
node c
edge ab from=a to=b capacity=39.375 sched=wtp sdp=1,2
edge ba from=b to=a capacity=39.375 sched=wtp sdp=1,2
edge bc from=b to=c capacity=39.375 sched=wtp sdp=1,2
edge cb from=c to=b capacity=39.375 sched=wtp sdp=1,2
route fwd from=a to=c
source renewal fwd class=0 gap=30 size=441 poisson
flows fwd class=1 users=4 size=441 think=100 deadline=50
run until=20000 warmup=2000 seed=9
)";

TEST(ScenarioGraph, ParsesNodesEdgesRoutedRoutesAndFlows) {
  const auto s = parse_scenario(kGraph);
  EXPECT_EQ(s.nodes, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(s.links.size(), 4u);
  EXPECT_EQ(s.links[0].from, "a");
  EXPECT_EQ(s.links[0].to, "b");
  ASSERT_EQ(s.routes.size(), 1u);
  EXPECT_TRUE(s.routes[0].links.empty());
  EXPECT_EQ(s.routes[0].from, "a");
  EXPECT_EQ(s.routes[0].to, "c");
  ASSERT_EQ(s.flows.size(), 1u);
  EXPECT_EQ(s.flows[0].route, "fwd");
  EXPECT_EQ(s.flows[0].users, 4u);
  EXPECT_DOUBLE_EQ(s.flows[0].deadline, 50.0);
}

TEST(ScenarioGraph, TopologyDirectiveExpandsToNodesAndDirectedLinks) {
  const auto s = parse_scenario(
      "topology ring n=4 capacity=10 sched=fcfs sdp=1\n"
      "route r from=n0 to=n2\n"
      "source renewal r class=0 gap=30 size=100 poisson\n"
      "run until=1000\n");
  EXPECT_EQ(s.nodes.size(), 4u);
  EXPECT_EQ(s.links.size(), 8u);  // one per direction of 4 ring edges
  EXPECT_EQ(s.links[0].name, "n0>n1");
  EXPECT_EQ(s.links[1].name, "n1>n0");
}

TEST(ScenarioGraph, UnknownNodeNamesItsLine) {
  EXPECT_NE(parse_error("node a\n"
                        "edge e from=a to=ghost capacity=10 sched=fcfs "
                        "sdp=1\n")
                .find("scenario line 2: unknown node ghost"),
            std::string::npos);
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge e from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=ghost to=b\n")
                .find("scenario line 4: unknown node ghost"),
            std::string::npos);
}

TEST(ScenarioGraph, UnreachablePairNamesItsLine) {
  // a->b exists but nothing reaches c.
  EXPECT_NE(parse_error("node a\nnode b\nnode c\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=a to=c\n")
                .find("scenario line 5: no path from a to c"),
            std::string::npos);
  // Directed: b->a is not implied by a->b.
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=b to=a\n")
                .find("scenario line 4: no path from b to a"),
            std::string::npos);
}

TEST(ScenarioGraph, DuplicateNodeAndEdgeNamesNameTheirLine) {
  EXPECT_NE(parse_error("node a\nnode a\n")
                .find("scenario line 2: duplicate node name a"),
            std::string::npos);
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge e from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "edge e from=b to=a capacity=10 sched=fcfs sdp=1\n")
                .find("scenario line 4: duplicate link name e"),
            std::string::npos);
  // A generated topology name colliding with a manual one reports the
  // topology line.
  EXPECT_NE(parse_error("node n0\nnode n1\n"
                        "edge n0>n1 from=n0 to=n1 capacity=10 sched=fcfs "
                        "sdp=1\n"
                        "topology line n=2 capacity=10 sched=fcfs sdp=1\n")
                .find("scenario line 4: duplicate node name n0"),
            std::string::npos);
}

TEST(ScenarioGraph, FlowsValidationNamesItsLine) {
  const std::string prefix =
      "node a\nnode b\n"
      "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
      "edge ba from=b to=a capacity=10 sched=fcfs sdp=1\n"
      "route r from=a to=b\n";
  EXPECT_NE(parse_error(prefix + "flows ghost class=0 users=1 size=100 "
                                 "think=10\n")
                .find("scenario line 6: unknown route ghost"),
            std::string::npos);
  EXPECT_NE(parse_error(prefix + "flows r class=0 users=1 size=100 think=10 "
                                 "retries=2\n")
                .find("scenario line 6: retries need a positive rto"),
            std::string::npos);
  // Flows over an explicit (link-list) route need an explicit reverse.
  EXPECT_NE(parse_error("link l capacity=10 sched=fcfs sdp=1\n"
                        "route r l\n"
                        "flows r class=0 users=1 size=100 think=10\n")
                .find("scenario line 3: flows over an explicit route need "
                      "reverse="),
            std::string::npos);
  // Reverse direction must be reachable: a->b only.
  EXPECT_NE(parse_error("node a\nnode b\n"
                        "edge ab from=a to=b capacity=10 sched=fcfs sdp=1\n"
                        "route r from=a to=b\n"
                        "flows r class=0 users=1 size=100 think=10\n")
                .find("scenario line 5: no path from b to a"),
            std::string::npos);
}

// ----------------------------------------------------------------- running

TEST(ScenarioRun, ExecutesAndReports) {
  const auto report = run_scenario(kValid);
  EXPECT_GT(report.total_exits, 500u);
  ASSERT_EQ(report.link_stats.size(), 2u);
  for (const auto& ls : report.link_stats) {
    EXPECT_GT(ls.utilization, 0.1);
    EXPECT_LT(ls.utilization, 1.0);
    EXPECT_GT(ls.packets_sent, 0u);
  }
  // Both the renewal class (0) and the CBR class (3) produced stats.
  bool saw0 = false, saw3 = false;
  for (const auto& rs : report.route_stats) {
    if (rs.cls == 0) saw0 = true;
    if (rs.cls == 3) saw3 = true;
    EXPECT_GE(rs.mean_delay, 0.0);
    EXPECT_GE(rs.p95_delay, 0.0);  // mostly-zero delays are legal at 37% load
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw3);
}

TEST(ScenarioRun, SeedOverrideChangesTheRun) {
  const auto a = run_scenario(kValid);
  const auto b = run_scenario(kValid, 99u);
  const auto c = run_scenario(kValid, 99u);
  EXPECT_EQ(b.total_exits, c.total_exits);  // deterministic per seed
  EXPECT_NE(a.total_exits, b.total_exits);
}

TEST(ScenarioRun, DifferentiationShowsUpInTheReport) {
  // Two classes at heavy load on one WTP link: class-1 mean delay must be
  // about half of class-0's.
  const char* scenario = R"(
link l capacity=39.375 sched=wtp sdp=1,2
route r l
source renewal r class=0 gap=23.6 size=441 pareto=1.9
source renewal r class=1 gap=23.6 size=441 pareto=1.9
run until=400000 warmup=40000 seed=5
)";
  const auto report = run_scenario(scenario);
  double d0 = 0.0, d1 = 0.0;
  for (const auto& rs : report.route_stats) {
    if (rs.cls == 0) d0 = rs.mean_delay;
    if (rs.cls == 1) d1 = rs.mean_delay;
  }
  ASSERT_GT(d0, 0.0);
  ASSERT_GT(d1, 0.0);
  EXPECT_NEAR(d0 / d1, 2.0, 0.4);
}

// ------------------------------------------------------------------ golden

// Mirror of examples/scenarios/y_merge.pds. The expected numbers below were
// captured on the pre-graph-refactor runner; they pin the legacy
// (link/route/source) execution path to byte-identical behavior across the
// topology-layer refactor.
const char* kYMerge = R"(
link accessA  capacity=39.375 sched=wtp sdp=1,2,4,8
link accessB  capacity=39.375 sched=wtp sdp=1,2,4,8
link backbone capacity=78.75  sched=wtp sdp=1,2,4,8

route pathA accessA backbone
route pathB accessB backbone

source mix pathA fractions=40,30,20,10 gap=14 size=441 pareto=1.9
source mix pathB fractions=40,30,20,10 gap=14 size=441 pareto=1.9

source cbr pathA class=3 count=2000 size=200 interval=100 start=10000

run until=300000 warmup=30000 seed=42
)";

TEST(ScenarioGolden, YMergeReproducesThePreRefactorRun) {
  const auto report = run_scenario(kYMerge);
  EXPECT_EQ(report.total_exits, 44766u);
  struct Row { const char* route; ClassId cls; std::uint64_t packets; };
  const Row expected[] = {
      {"pathA", 0, 7801}, {"pathA", 1, 5773}, {"pathA", 2, 3811},
      {"pathA", 3, 3753}, {"pathB", 0, 7578}, {"pathB", 1, 5913},
      {"pathB", 2, 3790}, {"pathB", 3, 1882},
  };
  ASSERT_EQ(report.route_stats.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(report.route_stats[i].route, expected[i].route);
    EXPECT_EQ(report.route_stats[i].cls, expected[i].cls);
    EXPECT_EQ(report.route_stats[i].packets, expected[i].packets) << i;
  }
  ASSERT_EQ(report.link_stats.size(), 3u);
  EXPECT_EQ(report.link_stats[0].packets_sent, 23457u);
  EXPECT_EQ(report.link_stats[1].packets_sent, 21311u);
  EXPECT_EQ(report.link_stats[2].packets_sent, 44767u);
}

TEST(ScenarioGolden, DefaultOptionsMatchTheLegacyOverload) {
  ScenarioOptions options;
  const auto a = run_scenario(kYMerge);
  const auto b = run_scenario(kYMerge, options);
  EXPECT_EQ(a.total_exits, b.total_exits);
  ASSERT_EQ(a.route_stats.size(), b.route_stats.size());
  for (std::size_t i = 0; i < a.route_stats.size(); ++i) {
    EXPECT_EQ(a.route_stats[i].packets, b.route_stats[i].packets);
    EXPECT_DOUBLE_EQ(a.route_stats[i].mean_delay,
                     b.route_stats[i].mean_delay);
  }
}

// ------------------------------------------------------------- new options

TEST(ScenarioOptionsRun, HorizonScaleShortensTheRun) {
  ScenarioOptions options;
  options.horizon_scale = 0.1;
  const auto quick = run_scenario(kValid, options);
  const auto full = run_scenario(kValid);
  EXPECT_GT(quick.total_exits, 0u);
  EXPECT_LT(quick.total_exits, full.total_exits / 4);
}

TEST(ScenarioOptionsRun, FaultPlanDropsPacketsAndFillsLinkStats) {
  ScenarioOptions options;
  options.fault_plan = "down a at=20000 for=5000 mode=drop\n";
  const auto report = run_scenario(kValid, options);
  EXPECT_TRUE(report.faulted);
  EXPECT_EQ(report.fault_episodes_scheduled, 1u);
  EXPECT_EQ(report.fault_episodes, 1u);
  EXPECT_GT(report.fault_drops, 0u);
  ASSERT_EQ(report.link_stats.size(), 2u);
  EXPECT_EQ(report.link_stats[0].sched, "wtp");
  EXPECT_GT(report.link_stats[0].fault_drops, 0u);
  EXPECT_EQ(report.link_stats[1].fault_drops, 0u);
  EXPECT_EQ(report.link_stats[0].burst_drops, 0u);
}

TEST(ScenarioParse, BufferOptionDeclaresADropTailLink) {
  const auto s = parse_scenario(
      "link a capacity=10 sched=wtp sdp=1,2 buffer=50\n"
      "link b capacity=10 sched=wtp sdp=1,2\n"
      "route r a b\n"
      "source renewal r class=0 gap=5 size=100\n"
      "run until=100\n");
  EXPECT_EQ(s.links[0].buffer, 50u);
  EXPECT_EQ(s.links[1].buffer, 0u);  // default stays lossless
  EXPECT_THROW(parse_scenario("link a capacity=10 sched=wtp sdp=1,2 "
                              "buffer=-1\nroute r a\n"
                              "source renewal r class=0 gap=5 size=100\n"
                              "run until=100\n"),
               std::invalid_argument);
}

const char* kBuffered = R"(
link a capacity=39.375 sched=wtp sdp=1,2,4,8 buffer=100
link b capacity=39.375 sched=wtp sdp=1,2,4,8
route chain a b
source renewal chain class=0 gap=30 size=441 pareto=1.9
source cbr chain class=3 count=50 size=441 interval=20 start=10000
run until=50000 warmup=5000 seed=3
)";

TEST(ScenarioOptionsRun, LossFaultsOnBufferedLinksReportBurstDrops) {
  // buffer= wraps the link in a LossyLink, which is what lets fault `loss`
  // episodes target it; the episode's drops surface as burst_drops.
  ScenarioOptions options;
  options.fault_plan = "loss a at=10000 for=20000 rate=0.5\n";
  const auto report = run_scenario(kBuffered, options);
  ASSERT_EQ(report.link_stats.size(), 2u);
  EXPECT_GT(report.link_stats[0].burst_drops, 0u);
  EXPECT_EQ(report.link_stats[1].burst_drops, 0u);
  const auto scenario = parse_scenario(kBuffered);
  const std::string json = scenario_run_report(scenario, report, 3u).dump();
  EXPECT_NE(json.find("\"burst_drops\":"), std::string::npos);
  EXPECT_NE(json.find("\"buffer_drops\":"), std::string::npos);
}

TEST(ScenarioOptionsRun, LossFaultsOnLosslessLinksAreRejected) {
  ScenarioOptions options;
  options.fault_plan = "loss a at=10000 for=2000 rate=0.5\n";
  EXPECT_THROW(run_scenario(kValid, options), std::invalid_argument);
}

TEST(ScenarioOptionsRun, ControlPlanReconfiguresAndFillsTheReport) {
  ScenarioOptions options;
  options.control_plan =
      "retune a at=15000 w=1,1,1,1\n"
      "class a at=20000 drain=0\n"
      "class a at=30000 add=0\n"
      "swap b at=25000 sched=pad\n"
      "shed a at=35000 for=5000 watermark=1 classes=1\n";
  const auto report = run_scenario(kValid, options);
  EXPECT_TRUE(report.controlled);
  EXPECT_EQ(report.control_episodes_scheduled, 5u);
  EXPECT_EQ(report.control_episodes, 5u);
  EXPECT_EQ(report.control_retunes, 1u);
  EXPECT_EQ(report.control_swaps, 1u);
  EXPECT_EQ(report.control_class_changes, 2u);
  EXPECT_EQ(report.control_sheds, 1u);
  // The drain window spans ~333 class-0 renewal arrivals on link a.
  EXPECT_GT(report.drain_drops, 0u);
  ASSERT_EQ(report.link_stats.size(), 2u);
  EXPECT_EQ(report.link_stats[0].control_drops,
            report.drain_drops + report.shed_drops);
  EXPECT_EQ(report.link_stats[1].control_drops, 0u);
  // A controlled run still delivers traffic end to end.
  EXPECT_GT(report.total_exits, 0u);
}

TEST(ScenarioOptionsRun, UncontrolledReportHasNoControlSection) {
  const auto scenario = parse_scenario(kValid);
  const auto report = run_scenario(scenario, ScenarioOptions{});
  EXPECT_FALSE(report.controlled);
  const std::string json = scenario_run_report(scenario, report, 3u).dump();
  EXPECT_EQ(json.find("\"control\":"), std::string::npos);
}

TEST(ScenarioOptionsRun, RunReportCarriesAControlSection) {
  const auto scenario = parse_scenario(kValid);
  ScenarioOptions options;
  options.control_plan =
      "retune a at=15000 w=1,1,1,1\n"
      "swap b at=25000 sched=pad\n";
  const auto report = run_scenario(scenario, options);
  const std::string json = scenario_run_report(scenario, report, 3u).dump();
  EXPECT_NE(json.find("\"control\":"), std::string::npos);
  EXPECT_NE(json.find("\"scheduled\":2"), std::string::npos);
  EXPECT_NE(json.find("\"completed\":2"), std::string::npos);
  EXPECT_NE(json.find("\"retunes\":1"), std::string::npos);
  EXPECT_NE(json.find("\"swaps\":1"), std::string::npos);
  EXPECT_NE(json.find("\"class_changes\":0"), std::string::npos);
  EXPECT_NE(json.find("\"sheds\":0"), std::string::npos);
  EXPECT_NE(json.find("\"shed_drops\":0"), std::string::npos);
  EXPECT_NE(json.find("\"drain_drops\":0"), std::string::npos);
  EXPECT_NE(json.find("\"control_drops\":"), std::string::npos);
}

TEST(ScenarioJobs, ControlledRunsAreByteIdenticalAcrossJobs) {
  // The control plane's determinism contract: every control boundary is a
  // scripted simulator event, so a controlled run must not depend on the
  // worker count.
  const auto scenario = parse_scenario(kValid);
  ScenarioOptions options;
  options.control_plan =
      "retune a at=15000 w=1,2,3,4\n"
      "swap a at=25000 sched=hpd\n"
      "shed b at=30000 for=5000 watermark=2 classes=2\n";
  ThreadPool::set_global_workers(1);
  const auto one = run_scenario(scenario, options);
  const std::string json_one = scenario_run_report(scenario, one, 3u).dump();
  ThreadPool::set_global_workers(4);
  const auto four = run_scenario(scenario, options);
  const std::string json_four = scenario_run_report(scenario, four, 3u).dump();
  ThreadPool::set_global_workers(0);  // restore auto for other suites
  EXPECT_EQ(json_one, json_four);
}

TEST(ScenarioOptionsRun, RunReportCarriesFlowsAndFaultSections) {
  const auto scenario = parse_scenario(kGraph);
  ScenarioOptions options;
  options.fault_plan = "down ab at=5000 for=500 mode=drop\n";
  const auto report = run_scenario(scenario, options);
  const auto doc = scenario_run_report(scenario, report, 9u);
  const std::string json = doc.dump();
  EXPECT_NE(json.find("\"schema\":\"pds.run_report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"scenario\""), std::string::npos);
  EXPECT_NE(json.find("\"flows\":"), std::string::npos);
  EXPECT_NE(json.find("\"slo_attainment\":"), std::string::npos);
  EXPECT_NE(json.find("\"faults\":"), std::string::npos);
  // Deterministic: same run, same document.
  const auto again = run_scenario(scenario, options);
  EXPECT_EQ(json, scenario_run_report(scenario, again, 9u).dump());
}

}  // namespace
}  // namespace pds
