// CRF inference correctness: the dynamic programs of the paper's appendix
// are validated against brute-force enumeration, and the analytic gradient
// of the log-likelihood against finite differences.
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "crf/inference.h"
#include "crf/likelihood.h"
#include "crf/model.h"
#include "crf/tagger.h"
#include "crf/viterbi.h"
#include "util/random.h"

namespace whoiscrf::crf {
namespace {

// Builds a small random model over `num_labels` labels and `num_attrs`
// attributes, with every attribute transition-eligible.
CrfModel RandomModel(int num_labels, int num_attrs, uint64_t seed) {
  text::Vocabulary vocab;
  for (int a = 0; a < num_attrs; ++a) {
    vocab.Count("attr" + std::to_string(a));
  }
  vocab.Freeze(1);
  std::vector<int> slots;
  for (int a = 0; a < num_attrs; ++a) slots.push_back(a);
  std::vector<std::string> labels;
  for (int l = 0; l < num_labels; ++l) {
    labels.push_back("L" + std::to_string(l));
  }
  CrfModel model(labels, std::move(vocab), slots);
  util::Rng rng(seed);
  for (double& w : model.weights()) w = rng.Gaussian() * 0.7;
  return model;
}

// Random compiled sequence over the model's attributes.
CompiledSequence RandomSequence(const CrfModel& model, int length,
                                uint64_t seed) {
  util::Rng rng(seed);
  CompiledSequence seq;
  const int num_attrs = static_cast<int>(model.vocab().size());
  for (int t = 0; t < length; ++t) {
    CompiledItem item;
    const int n = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < n; ++i) {
      const int attr = static_cast<int>(rng.UniformInt(0, num_attrs - 1));
      item.attrs.push_back(attr);
      if (rng.Bernoulli(0.5)) item.trans_slots.push_back(attr);
    }
    seq.push_back(std::move(item));
  }
  return seq;
}

TEST(LogSumExpTest, MatchesDirectComputation) {
  const double v[] = {0.5, -1.0, 2.0, 0.0};
  const double direct =
      std::log(std::exp(0.5) + std::exp(-1.0) + std::exp(2.0) + std::exp(0.0));
  EXPECT_NEAR(LogSumExp(v, 4), direct, 1e-12);
}

TEST(LogSumExpTest, StableForLargeValues) {
  const double v[] = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(v, 2), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogSumExpTest, AllNegativeInfinity) {
  const double inf = std::numeric_limits<double>::infinity();
  const double v[] = {-inf, -inf};
  EXPECT_TRUE(std::isinf(LogSumExp(v, 2)));
  EXPECT_LT(LogSumExp(v, 2), 0);
}

class InferenceBruteForceTest
    : public ::testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(InferenceBruteForceTest, LogPartitionMatchesEnumeration) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 1);
  const auto scores = model.ComputeScores(seq);
  EXPECT_NEAR(LogPartition(scores), LogPartitionBruteForce(scores), 1e-8);
}

TEST_P(InferenceBruteForceTest, ViterbiMatchesEnumeration) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 2);
  const auto scores = model.ComputeScores(seq);
  const ViterbiResult fast = Decode(scores);
  const ViterbiResult slow = DecodeBruteForce(scores);
  EXPECT_NEAR(fast.score, slow.score, 1e-9);
  EXPECT_EQ(fast.labels, slow.labels);
}

TEST_P(InferenceBruteForceTest, NodeMarginalsSumToOne) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 3);
  const Posteriors post = ForwardBackward(model.ComputeScores(seq));
  for (int t = 0; t < post.T; ++t) {
    double sum = 0.0;
    for (int j = 0; j < post.L; ++j) sum += post.node[t * post.L + j];
    EXPECT_NEAR(sum, 1.0, 1e-9) << "t=" << t;
  }
}

TEST_P(InferenceBruteForceTest, EdgeMarginalsConsistentWithNodes) {
  const auto [num_labels, length, seed] = GetParam();
  CrfModel model = RandomModel(num_labels, 5, seed);
  const CompiledSequence seq = RandomSequence(model, length, seed + 4);
  const Posteriors post = ForwardBackward(model.ComputeScores(seq));
  const int L = post.L;
  for (int t = 1; t < post.T; ++t) {
    for (int j = 0; j < L; ++j) {
      double sum = 0.0;
      for (int i = 0; i < L; ++i) sum += post.edge[t * L * L + i * L + j];
      EXPECT_NEAR(sum, post.node[t * L + j], 1e-9) << "t=" << t << " j=" << j;
    }
    for (int i = 0; i < L; ++i) {
      double sum = 0.0;
      for (int j = 0; j < L; ++j) sum += post.edge[t * L * L + i * L + j];
      EXPECT_NEAR(sum, post.node[(t - 1) * L + i], 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallModels, InferenceBruteForceTest,
    ::testing::Values(std::make_tuple(2, 1, 7u), std::make_tuple(2, 4, 11u),
                      std::make_tuple(3, 3, 13u), std::make_tuple(3, 6, 17u),
                      std::make_tuple(4, 5, 19u), std::make_tuple(5, 4, 23u),
                      std::make_tuple(6, 3, 29u), std::make_tuple(2, 8, 31u)));

TEST(SequenceLogProbTest, NormalizesOverAllPaths) {
  CrfModel model = RandomModel(3, 4, 99);
  const CompiledSequence seq = RandomSequence(model, 4, 100);
  const auto scores = model.ComputeScores(seq);
  // Sum of exp(log-prob) over all 3^4 paths must be 1.
  double total = 0.0;
  std::vector<int> labels(4, 0);
  while (true) {
    total += std::exp(SequenceLogProb(scores, labels));
    int pos = 0;
    while (pos < 4) {
      if (++labels[static_cast<size_t>(pos)] < 3) break;
      labels[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == 4) break;
  }
  EXPECT_NEAR(total, 1.0, 1e-8);
}

TEST(GradientCheckTest, AnalyticMatchesFiniteDifference) {
  CrfModel model = RandomModel(3, 6, 123);
  Dataset data;
  util::Rng rng(321);
  for (int r = 0; r < 4; ++r) {
    const CompiledSequence seq = RandomSequence(model, 5, 400 + r);
    std::vector<int> gold;
    for (size_t t = 0; t < seq.size(); ++t) {
      gold.push_back(static_cast<int>(rng.UniformInt(0, 2)));
    }
    data.sequences.push_back(seq);
    data.labels.push_back(gold);
  }
  LogLikelihood objective(model, data, /*l2_sigma=*/2.0);

  std::vector<double> w = model.weights();
  std::vector<double> grad;
  const double f0 = objective.Evaluate(w, grad);
  ASSERT_TRUE(std::isfinite(f0));

  util::Rng pick(555);
  const double eps = 1e-6;
  for (int trial = 0; trial < 25; ++trial) {
    const size_t k = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(w.size()) - 1));
    std::vector<double> w_plus = w;
    std::vector<double> w_minus = w;
    w_plus[k] += eps;
    w_minus[k] -= eps;
    std::vector<double> scratch;
    const double f_plus = objective.Evaluate(w_plus, scratch);
    const double f_minus = objective.Evaluate(w_minus, scratch);
    const double numeric = (f_plus - f_minus) / (2 * eps);
    EXPECT_NEAR(grad[k], numeric, 1e-4)
        << "weight index " << k << " of " << w.size();
  }
}

TEST(GradientCheckTest, ZeroGradientAtOptimumOfSingleLabelProblem) {
  // With no regularization and a dataset where every line has the same
  // label, pushing that label's weights to +inf maximizes likelihood; the
  // gradient at w=0 must point toward the gold label (negative component).
  CrfModel model = RandomModel(2, 2, 1);
  for (double& w : model.weights()) w = 0.0;
  Dataset data;
  CompiledSequence seq(3);
  for (auto& item : seq) item.attrs = {0};
  data.sequences.push_back(seq);
  data.labels.push_back({0, 0, 0});
  LogLikelihood objective(model, data, /*l2_sigma=*/0.0);
  std::vector<double> grad;
  objective.Evaluate(model.weights(), grad);
  EXPECT_LT(grad[model.UnigramIndex(0, 0)], 0.0);
  EXPECT_GT(grad[model.UnigramIndex(0, 1)], 0.0);
}

TEST(ModelSerializationTest, RoundTripsExactly) {
  CrfModel model = RandomModel(4, 7, 77);
  std::stringstream ss;
  model.Save(ss);
  const CrfModel loaded = CrfModel::Load(ss);
  EXPECT_EQ(loaded.num_labels(), model.num_labels());
  EXPECT_EQ(loaded.label_names(), model.label_names());
  EXPECT_EQ(loaded.num_weights(), model.num_weights());
  EXPECT_EQ(loaded.weights(), model.weights());
  EXPECT_EQ(loaded.num_transition_slots(), model.num_transition_slots());
  // Decoding behavior identical.
  const CompiledSequence seq = RandomSequence(model, 6, 78);
  EXPECT_EQ(Decode(model.ComputeScores(seq)).labels,
            Decode(loaded.ComputeScores(seq)).labels);
}

TEST(ModelSerializationTest, RejectsCorruptStream) {
  std::stringstream ss;
  ss << "not a model";
  EXPECT_THROW(CrfModel::Load(ss), std::runtime_error);
}

// A saved model stream whose v2 trailer (the final u32, written as 0) is
// replaced by `trailer` — a length field plus whatever bytes follow it.
std::string WithTrailer(const CrfModel& model, const std::string& trailer) {
  std::stringstream ss;
  model.Save(ss);
  std::string bytes = ss.str();
  EXPECT_EQ(bytes.substr(bytes.size() - 4), std::string(4, '\0'));
  bytes.resize(bytes.size() - 4);
  return bytes + trailer;
}

std::string U32Bytes(uint32_t v) {
  return {static_cast<char>(v), static_cast<char>(v >> 8),
          static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
}

TEST(ModelSerializationTest, LoadsVersion2StreamsWithSupportMask) {
  // Files written before the transition-support mask was dropped carry an
  // L*L mask in the v2 trailer. Load skips exactly those bytes, so a model
  // that follows in the same stream (parser files hold two) still loads.
  const CrfModel model = RandomModel(3, 4, 91);
  std::stringstream legacy(
      WithTrailer(model, U32Bytes(9) + std::string(9, '\1')) + "next");
  const CrfModel loaded = CrfModel::Load(legacy);
  EXPECT_EQ(loaded.label_names(), model.label_names());
  EXPECT_EQ(loaded.weights(), model.weights());
  std::string rest;
  legacy >> rest;
  EXPECT_EQ(rest, "next");
}

TEST(ModelSerializationTest, RejectsWrongSizeTrailer) {
  const CrfModel model = RandomModel(3, 4, 92);
  std::stringstream ss(WithTrailer(model, U32Bytes(5) + std::string(5, '\1')));
  EXPECT_THROW(CrfModel::Load(ss), std::runtime_error);
}

TEST(ModelSerializationTest, RejectsLyingTrailerLength) {
  // The length is checked before anything is read or allocated: the
  // stream is never read past the length field, so it does not hit EOF.
  const CrfModel model = RandomModel(3, 4, 94);
  std::stringstream ss(WithTrailer(model, U32Bytes(0xFFFFFFFFu)));
  EXPECT_THROW(CrfModel::Load(ss), std::runtime_error);
  EXPECT_FALSE(ss.eof());
}

TEST(ModelSerializationTest, RejectsTruncatedTrailer) {
  const CrfModel model = RandomModel(3, 4, 95);
  std::stringstream short_mask(
      WithTrailer(model, U32Bytes(9) + std::string(4, '\1')));
  EXPECT_THROW(CrfModel::Load(short_mask), std::runtime_error);
  std::stringstream short_length(WithTrailer(model, std::string(2, '\0')));
  EXPECT_THROW(CrfModel::Load(short_length), std::runtime_error);
}

// A version-2 model stream: magic, version, then `rest`.
std::string ModelStream(const std::string& rest) {
  return U32Bytes(0x57435246u) + U32Bytes(2) + rest;
}

std::string LengthPrefixed(const std::string& s) {
  return U32Bytes(static_cast<uint32_t>(s.size())) + s;
}

// Two labels, "A" and "B": the shortest valid label table.
std::string TwoLabels() {
  return U32Bytes(2) + LengthPrefixed("A") + LengthPrefixed("B");
}

void ExpectRejected(const std::string& rest) {
  std::stringstream ss(ModelStream(rest));
  EXPECT_THROW(CrfModel::Load(ss), std::runtime_error);
}

// Hostile counts and lengths: each claims far more than the stream holds.
// Load must fail with runtime_error after reading what is there, never
// allocate what the count claims (which would be bad_alloc, or an ASan
// allocation-size abort).
TEST(ModelSerializationTest, RejectsLyingLabelCount) {
  ExpectRejected(U32Bytes(0xFFFFFFFFu));
  ExpectRejected(U32Bytes(1) + LengthPrefixed("A") + U32Bytes(0));
}

TEST(ModelSerializationTest, RejectsLyingStringLength) {
  ExpectRejected(U32Bytes(2) + U32Bytes(0xFFFFFFF0u) + "abc");
}

TEST(ModelSerializationTest, RejectsLyingVocabCounts) {
  ExpectRejected(TwoLabels() + U32Bytes(0xFFFFFFFFu));
  ExpectRejected(TwoLabels() + U32Bytes(1) + U32Bytes(0xFFFFFFF0u) + "w");
}

TEST(ModelSerializationTest, RejectsLyingSlotAndWeightCounts) {
  const std::string empty_vocab = U32Bytes(0);
  ExpectRejected(TwoLabels() + empty_vocab + U32Bytes(0xFFFFFFFFu));
  // With no vocabulary and no slots, two labels make exactly 4 weights.
  const std::string no_slots = TwoLabels() + empty_vocab + U32Bytes(0);
  ExpectRejected(no_slots + U32Bytes(0xFFFFFFFFu));
  ExpectRejected(no_slots + U32Bytes(4) + std::string(8, '\0'));
  // The same head with 4 real weights and an empty trailer loads.
  const std::string weights = U32Bytes(4) + std::string(32, '\0');
  std::stringstream valid(ModelStream(no_slots + weights + U32Bytes(0)));
  EXPECT_EQ(CrfModel::Load(valid).num_weights(), 4u);
}

TEST(ModelSerializationTest, LoadsVersion1StreamsWithoutSupport) {
  // A v1 stream is a v2 stream with the version field rewound and the
  // trailer cut off.
  const CrfModel model = RandomModel(4, 7, 93);
  std::string bytes = WithTrailer(model, "");
  bytes[4] = 1;  // version u32 (little-endian) follows the 4-byte magic
  std::stringstream v1(bytes);
  const CrfModel loaded = CrfModel::Load(v1);
  EXPECT_EQ(loaded.label_names(), model.label_names());
  EXPECT_EQ(loaded.weights(), model.weights());
}

TEST(InferenceEdgeCases, SingleLineSequence) {
  CrfModel model = RandomModel(3, 3, 5);
  CompiledSequence seq(1);
  seq[0].attrs = {0, 1};
  const auto scores = model.ComputeScores(seq);
  const Posteriors post = ForwardBackward(scores);
  double sum = 0.0;
  for (int j = 0; j < 3; ++j) sum += post.node[static_cast<size_t>(j)];
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(Decode(scores).labels.size(), 1u);
}

TEST(InferenceEdgeCases, EmptySequenceThrows) {
  CrfModel model = RandomModel(3, 3, 6);
  const CrfModel::Scores empty{};
  EXPECT_THROW(ForwardBackward(empty), std::invalid_argument);
  EXPECT_THROW(Decode(empty), std::invalid_argument);
  EXPECT_THROW(LogPartition(empty), std::invalid_argument);
}

TEST(InferenceEdgeCases, ParallelEvaluationMatchesSerial) {
  CrfModel model = RandomModel(4, 8, 42);
  Dataset data;
  util::Rng rng(43);
  for (int r = 0; r < 12; ++r) {
    const CompiledSequence seq = RandomSequence(model, 7, 500 + r);
    std::vector<int> gold;
    for (size_t t = 0; t < seq.size(); ++t) {
      gold.push_back(static_cast<int>(rng.UniformInt(0, 3)));
    }
    data.sequences.push_back(seq);
    data.labels.push_back(gold);
  }
  std::vector<double> grad_serial;
  std::vector<double> grad_parallel;
  CrfModel model2 = model;
  LogLikelihood serial(model, data, 1.5, nullptr);
  util::ThreadPool pool(4);
  LogLikelihood parallel(model2, data, 1.5, &pool);
  const double f1 = serial.Evaluate(model.weights(), grad_serial);
  const double f2 = parallel.Evaluate(model2.weights(), grad_parallel);
  EXPECT_NEAR(f1, f2, 1e-9);
  ASSERT_EQ(grad_serial.size(), grad_parallel.size());
  for (size_t k = 0; k < grad_serial.size(); ++k) {
    ASSERT_NEAR(grad_serial[k], grad_parallel[k], 1e-9) << "k=" << k;
  }
}

}  // namespace
}  // namespace whoiscrf::crf
