// Property-style parameterized suites:
//   * per-template-family invariants of the generator and parser,
//   * rate-limiter behavior across policy sweeps,
//   * CRF inference invariants across state-space sizes.
#include <gtest/gtest.h>

#include "crf/inference.h"
#include "crf/viterbi.h"
#include "crf/tagger.h"
#include "crf/trainer.h"
#include "datagen/corpus_gen.h"
#include "net/rate_limiter.h"
#include "text/line_splitter.h"
#include "whois/whois_parser.h"

namespace whoiscrf {
namespace {

// ---------------------------------------------------------------------
// Per-family properties: every template family renders consistently
// labeled records, and a parser trained across families labels in-family
// records accurately.
class TemplateFamilyTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    datagen::CorpusOptions options;
    options.size = 600;
    options.seed = 4242;
    generator_ = new datagen::CorpusGenerator(options);
    std::vector<whois::LabeledRecord> train;
    for (size_t i = 0; i < 350; ++i) {
      train.push_back(generator_->Generate(i).thick);
    }
    parser_ = new whois::WhoisParser(whois::WhoisParser::Train(train));
  }
  static void TearDownTestSuite() {
    delete generator_;
    delete parser_;
  }
  static datagen::CorpusGenerator* generator_;
  static whois::WhoisParser* parser_;
};

datagen::CorpusGenerator* TemplateFamilyTest::generator_ = nullptr;
whois::WhoisParser* TemplateFamilyTest::parser_ = nullptr;

TEST_P(TemplateFamilyTest, RendersBothVersionsWithValidLabels) {
  const std::string& family = GetParam();
  const datagen::TemplateLibrary& library = generator_->templates();
  datagen::TemplateEngine engine;
  util::Rng rng(1);
  datagen::EntityGenerator entities;

  datagen::DomainFacts facts;
  facts.domain = "proptest.com";
  facts.registrar_name = "Prop Registrar";
  facts.registrar_url = "http://example.com";
  facts.whois_server = "whois.example.com";
  facts.iana_id = "999";
  facts.created = "2012-01-02T03:04:05Z";
  facts.updated = "2014-01-02T03:04:05Z";
  facts.expires = "2016-01-02T03:04:05Z";
  facts.name_servers = {"ns1.proptest.com"};
  facts.statuses = {"ok"};
  facts.registrant = entities.MakeContact(rng, "US");
  facts.admin = facts.registrant;
  facts.tech = facts.registrant;

  for (int version = 0; version < 2; ++version) {
    const auto record = engine.Render(library.Get(family, version), facts);
    record.Validate();
    // Registrant data must be present and placed on registrant lines.
    bool found_name = false;
    const auto lines = text::SplitRecord(record.text);
    for (size_t t = 0; t < lines.size(); ++t) {
      if (lines[t].text.find(facts.registrant.name) != std::string::npos &&
          record.labels[t] == whois::Level1Label::kRegistrant) {
        found_name = true;
      }
    }
    EXPECT_TRUE(found_name) << family << " v" << version;
  }
}

TEST_P(TemplateFamilyTest, TrainedParserHandlesFamily) {
  const std::string& family = GetParam();
  // Scan held-out records (indices past the 350 trained on) of this family
  // and demand high line accuracy. Rare families first appear near index
  // 700, so the scan runs up to a fixed cap rather than the corpus size.
  size_t lines = 0;
  size_t wrong = 0;
  size_t records_seen = 0;
  for (size_t i = 350; i < 2000 && records_seen < 8; ++i) {
    const auto domain = generator_->Generate(i);
    const auto& actual_family =
        generator_->registrars()
            .info(static_cast<size_t>(domain.facts.registrar_index))
            .family;
    if (actual_family != family) continue;
    ++records_seen;
    const auto labels = parser_->LabelLines(domain.thick.text);
    for (size_t t = 0; t < labels.size(); ++t) {
      ++lines;
      if (labels[t] != domain.thick.labels[t]) ++wrong;
    }
  }
  ASSERT_GT(records_seen, 0u) << family << " not drawn in held-out range";
  EXPECT_LE(static_cast<double>(wrong) / static_cast<double>(lines), 0.08)
      << family << ": " << wrong << "/" << lines;
}

INSTANTIATE_TEST_SUITE_P(
    NamedFamilies, TemplateFamilyTest,
    ::testing::Values("godaddy", "wildwest", "enom", "netsol", "oneand1",
                      "hichina", "xinnet", "pdr", "register", "fastdomain",
                      "gmo", "melbourne", "tucows", "moniker", "namecom",
                      "bizcn", "dreamhost", "namecheap", "ovh", "gandi"),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Rate limiter sweeps.
struct PolicyCase {
  uint32_t max_queries;
  uint64_t window_ms;
  uint64_t penalty_ms;
};

class RateLimiterSweep : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(RateLimiterSweep, AllowsExactlyBudgetPerWindow) {
  const PolicyCase param = GetParam();
  net::RateLimiter limiter(
      {param.max_queries, param.window_ms, param.penalty_ms});
  uint64_t now = 0;
  uint32_t allowed = 0;
  // Burst: exactly max_queries pass, the next is denied.
  for (uint32_t i = 0; i <= param.max_queries; ++i) {
    if (limiter.Allow("src", now)) ++allowed;
    ++now;
  }
  EXPECT_EQ(allowed, param.max_queries);
  EXPECT_TRUE(limiter.InPenalty("src", now));
  // After the penalty AND window pass, the budget refreshes fully.
  now += param.penalty_ms + param.window_ms + 1;
  allowed = 0;
  for (uint32_t i = 0; i < param.max_queries; ++i) {
    if (limiter.Allow("src", now)) ++allowed;
  }
  EXPECT_EQ(allowed, param.max_queries);
}

TEST_P(RateLimiterSweep, SteadySlowRateNeverTrips) {
  const PolicyCase param = GetParam();
  net::RateLimiter limiter(
      {param.max_queries, param.window_ms, param.penalty_ms});
  // One query per (window / max) * 1.5 never exceeds the budget.
  const uint64_t gap = (param.window_ms / param.max_queries) * 3 / 2 + 1;
  uint64_t now = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(limiter.Allow("src", now)) << "query " << i;
    now += gap;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, RateLimiterSweep,
    ::testing::Values(PolicyCase{1, 1000, 500}, PolicyCase{5, 1000, 2000},
                      PolicyCase{30, 60'000, 120'000},
                      PolicyCase{100, 10'000, 10'000}),
    [](const auto& info) {
      return "q" + std::to_string(info.param.max_queries) + "_w" +
             std::to_string(info.param.window_ms);
    });

// ---------------------------------------------------------------------
// CRF invariants across label-space sizes (matches the two real models:
// 6 level-1 states, 12 level-2 states).
class CrfStateSpaceTest : public ::testing::TestWithParam<int> {};

TEST_P(CrfStateSpaceTest, ViterbiPathHasMaximalProbability) {
  const int L = GetParam();
  text::Vocabulary vocab;
  for (int a = 0; a < 4; ++a) vocab.Count("a" + std::to_string(a));
  vocab.Freeze(1);
  std::vector<std::string> names;
  for (int l = 0; l < L; ++l) names.push_back("s" + std::to_string(l));
  crf::CrfModel model(names, std::move(vocab), {0, 1});
  util::Rng rng(static_cast<uint64_t>(L) * 31 + 7);
  for (double& w : model.weights()) w = rng.Gaussian();

  crf::CompiledSequence seq(5);
  for (auto& item : seq) {
    item.attrs = {static_cast<int>(rng.UniformInt(0, 3))};
    if (rng.Bernoulli(0.5)) item.trans_slots = {0};
  }
  const auto scores = model.ComputeScores(seq);
  const auto best = crf::Decode(scores);
  const double best_log_prob = crf::SequenceLogProb(scores, best.labels);

  // 50 random paths: none may beat Viterbi.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int> labels;
    for (int t = 0; t < 5; ++t) {
      labels.push_back(static_cast<int>(rng.UniformInt(0, L - 1)));
    }
    EXPECT_LE(crf::SequenceLogProb(scores, labels), best_log_prob + 1e-9);
  }
  EXPECT_LE(best_log_prob, 1e-9);  // it's a probability
}

INSTANTIATE_TEST_SUITE_P(StateSpaces, CrfStateSpaceTest,
                         ::testing::Values(2, 3, 6, 12));

}  // namespace
}  // namespace whoiscrf
