// fec::GaussJordanInsert against a reduced row echelon form rebuilt
// from scratch after every insert. Rows of every kind (dense, sparse,
// unit, zero, duplicate, linear combination, inconsistent) go in at
// several widths and payload sizes; after each insert the returned
// lead, the rank and every basis row must match the reference, and a
// row that adds no rank must leave the basis untouched.
#include "fec/gauss_jordan.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fec/gf256.h"

namespace ppr::fec {
namespace {

using Row = std::vector<std::uint8_t>;

// The reduced row echelon form of `rows` with pivots in the first
// `cols` columns, by the textbook algorithm in scalar field arithmetic.
// out[j] is the row whose lead is column j, or empty.
std::vector<Row> ReferenceRref(std::vector<Row> rows, std::size_t cols) {
  std::vector<std::size_t> lead_of;  // lead column of rows[0, top)
  std::size_t top = 0;
  for (std::size_t c = 0; c < cols && top < rows.size(); ++c) {
    std::size_t p = top;
    while (p < rows.size() && rows[p][c] == 0) ++p;
    if (p == rows.size()) continue;
    std::swap(rows[top], rows[p]);
    const std::uint8_t inv = GfInv(rows[top][c]);
    for (auto& b : rows[top]) b = GfMul(b, inv);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::uint8_t f = rows[r][c];
      if (r == top || f == 0) continue;
      for (std::size_t k = 0; k < rows[r].size(); ++k) {
        rows[r][k] ^= GfMul(f, rows[top][k]);
      }
    }
    lead_of.push_back(c);
    ++top;
  }
  std::vector<Row> basis(cols);
  for (std::size_t i = 0; i < top; ++i) basis[lead_of[i]] = rows[i];
  return basis;
}

std::size_t RankOf(const std::vector<Row>& basis) {
  std::size_t rank = 0;
  for (const Row& row : basis) rank += row.empty() ? 0 : 1;
  return rank;
}

// The fused row [coefs | coefs . source].
Row Consistent(const Row& coefs, const std::vector<Row>& source,
               std::size_t payload) {
  Row row = coefs;
  row.resize(coefs.size() + payload, 0);
  for (std::size_t j = 0; j < coefs.size(); ++j) {
    for (std::size_t b = 0; b < payload; ++b) {
      row[coefs.size() + b] ^= GfMul(coefs[j], source[j][b]);
    }
  }
  return row;
}

// A combination of 1 + extra earlier rows with random factors.
Row Combination(Rng& rng, const std::vector<Row>& earlier, std::size_t extra) {
  Row row(earlier.front().size(), 0);
  for (std::size_t t = 0; t <= extra; ++t) {
    const Row& src = earlier[rng.UniformInt(earlier.size())];
    const auto f = static_cast<std::uint8_t>(1 + rng.UniformInt(255));
    for (std::size_t k = 0; k < row.size(); ++k) row[k] ^= GfMul(f, src[k]);
  }
  return row;
}

void RunInserts(std::size_t cols, std::size_t payload, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "cols=" << cols << " payload=" << payload);
  Rng rng(seed);
  std::vector<Row> source(cols, Row(payload));
  for (auto& s : source) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.UniformInt(256));
  }

  // The kernel's basis, in caller-owned storage.
  std::vector<Row> rows(cols);
  std::vector<bool> live(cols, false);
  std::vector<GfTerm> terms;
  const auto row_at = [&](std::size_t j) {
    return live[j] ? rows[j].data() : nullptr;
  };

  std::vector<Row> inserted;     // every consistent row so far
  std::vector<Row> independent;  // the ones that raised the rank
  std::vector<Row> reference(cols);
  const std::size_t steps = cols <= 64 ? 2 * cols + 16 : 96;
  for (std::size_t step = 0; step < steps; ++step) {
    SCOPED_TRACE(testing::Message() << "step=" << step);
    Row coefs(cols, 0);
    Row row;
    bool consistent = true;
    // Weights: dense 3, sparse 2, unit, zero, duplicate, combination
    // and inconsistent 1 each. The last three need an earlier row.
    std::size_t kind = rng.UniformInt(10);
    if (kind >= 7 && inserted.empty()) kind = 0;
    if (kind < 3) {  // dense
      for (auto& c : coefs) c = static_cast<std::uint8_t>(rng.UniformInt(256));
      row = Consistent(coefs, source, payload);
    } else if (kind < 5) {  // sparse: one to three nonzero coefficients
      for (std::size_t t = 1 + rng.UniformInt(3); t > 0; --t) {
        coefs[rng.UniformInt(cols)] =
            static_cast<std::uint8_t>(1 + rng.UniformInt(255));
      }
      row = Consistent(coefs, source, payload);
    } else if (kind == 5) {  // unit
      coefs[rng.UniformInt(cols)] = 1;
      row = Consistent(coefs, source, payload);
    } else if (kind == 6) {  // zero
      row = Consistent(coefs, source, payload);
    } else if (kind == 7) {  // duplicate
      row = inserted[rng.UniformInt(inserted.size())];
    } else if (kind == 8) {  // linear combination of earlier rows
      row = Combination(rng, inserted, 1 + rng.UniformInt(2));
    } else {  // inconsistent: dependent coefficients, perturbed payload
      row = Combination(rng, inserted, rng.UniformInt(2));
      row[cols + rng.UniformInt(payload)] ^=
          static_cast<std::uint8_t>(1 + rng.UniformInt(255));
      consistent = false;
    }

    const std::vector<Row> rows_before = rows;
    const std::vector<bool> live_before = live;
    Row work = row;
    const std::size_t lead = GaussJordanInsert(work, cols, row_at, terms);
    if (lead < cols) {
      rows[lead] = work;
      live[lead] = true;
    }

    std::size_t want_lead = cols;
    if (consistent) {
      inserted.push_back(row);
      std::vector<Row> candidate = independent;
      candidate.push_back(row);
      std::vector<Row> rebuilt = ReferenceRref(std::move(candidate), cols);
      if (RankOf(rebuilt) > RankOf(reference)) {
        independent.push_back(row);
        for (std::size_t j = 0; j < cols; ++j) {
          if (reference[j].empty() && !rebuilt[j].empty()) want_lead = j;
        }
        reference = std::move(rebuilt);
      }
    }
    ASSERT_EQ(lead, want_lead) << "kind=" << kind;
    std::size_t rank = 0;
    for (std::size_t j = 0; j < cols; ++j) {
      ASSERT_EQ(live[j], !reference[j].empty()) << "column " << j;
      if (live[j]) {
        ++rank;
        ASSERT_EQ(rows[j], reference[j]) << "column " << j;
      }
    }
    ASSERT_EQ(rank, RankOf(reference));
    if (lead == cols) {
      ASSERT_EQ(live, live_before);
      ASSERT_EQ(rows, rows_before);
    }
  }

  // At full rank every row is [e_j | source_j].
  if (RankOf(reference) == cols) {
    for (std::size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(Row(rows[j].begin() + static_cast<std::ptrdiff_t>(cols),
                    rows[j].end()),
                source[j]);
    }
  }
}

TEST(GaussJordanInsertTest, MatchesReferenceRrefAfterEveryInsert) {
  std::uint64_t seed = 1100;
  for (const std::size_t cols : {1u, 3u, 16u, 64u, 256u}) {
    for (const std::size_t payload : {1u, 8u, 67u}) {
      RunInserts(cols, payload, ++seed);
    }
  }
}

// A dependent row that reduces to zero and an inconsistent one that
// reduces to a bare payload both return `cols`, and neither touches the
// basis.
TEST(GaussJordanInsertTest, RejectedRowsLeaveTheBasisUntouched) {
  const std::size_t cols = 3;
  std::vector<Row> rows(cols);
  std::vector<bool> live(cols, false);
  std::vector<GfTerm> terms;
  const auto row_at = [&](std::size_t j) {
    return live[j] ? rows[j].data() : nullptr;
  };
  Row work = {0, 2, 4, 6, 9};  // 2*x1 + 4*x2 = [6 9]
  ASSERT_EQ(GaussJordanInsert(work, cols, row_at, terms), 1u);
  EXPECT_EQ(work[1], 1);
  rows[1] = work;
  live[1] = true;
  const Row banked = rows[1];

  Row dependent = {0, 4, 8, GfMul(2, 6), GfMul(2, 9)};
  EXPECT_EQ(GaussJordanInsert(dependent, cols, row_at, terms), cols);
  Row inconsistent = {0, 4, 8, GfMul(2, 6), 1};
  EXPECT_EQ(GaussJordanInsert(inconsistent, cols, row_at, terms), cols);
  Row zero(cols + 2, 0);
  EXPECT_EQ(GaussJordanInsert(zero, cols, row_at, terms), cols);
  EXPECT_EQ(rows[1], banked);
  EXPECT_FALSE(live[0]);
  EXPECT_FALSE(live[2]);
}

}  // namespace
}  // namespace ppr::fec
