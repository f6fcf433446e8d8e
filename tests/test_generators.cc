#include <functional>

#include <gtest/gtest.h>

#include "sparse/generators.h"
#include "sparse/matrix_stats.h"
#include "test_helpers.h"

namespace azul {
namespace {

/** Strict diagonal dominance with positive diagonal implies SPD for
 *  symmetric matrices — the property all generators guarantee. */
void
ExpectSpd(const CsrMatrix& a)
{
    ASSERT_EQ(a.rows(), a.cols());
    ASSERT_TRUE(a.IsSymmetric(1e-12));
    for (Index r = 0; r < a.rows(); ++r) {
        double off = 0.0;
        double diag = 0.0;
        for (Index k = a.RowBegin(r); k < a.RowEnd(r); ++k) {
            if (a.col_idx()[k] == r) {
                diag = a.vals()[k];
            } else {
                off += std::abs(a.vals()[k]);
            }
        }
        EXPECT_GT(diag, off) << "row " << r << " not dominant";
    }
}

// ---- Parameterized SPD property across all generators ---------------------

struct GeneratorCase {
    const char* name;
    std::function<CsrMatrix()> make;
};

/** Names the case in gtest output. Without it gtest prints the raw
 *  bytes, which hold pointers and so differ on every run. */
void
PrintTo(const GeneratorCase& c, std::ostream* os)
{
    *os << c.name;
}

class GeneratorSpdTest
    : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(GeneratorSpdTest, ProducesSpdMatrix)
{
    ExpectSpd(GetParam().make());
}

TEST_P(GeneratorSpdTest, Deterministic)
{
    EXPECT_EQ(GetParam().make(), GetParam().make());
}

TEST_P(GeneratorSpdTest, HasFullDiagonal)
{
    const CsrMatrix a = GetParam().make();
    for (Index r = 0; r < a.rows(); ++r) {
        EXPECT_GT(a.At(r, r), 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, GeneratorSpdTest,
    ::testing::Values(
        GeneratorCase{"grid2d", [] { return Grid2dLaplacian(9, 7); }},
        GeneratorCase{"grid3d",
                      [] { return Grid3dLaplacian(5, 4, 3); }},
        GeneratorCase{"grid2d9pt",
                      [] { return Grid2dNinePoint(8, 6); }},
        GeneratorCase{"geometric",
                      [] {
                          return RandomGeometricLaplacian(300, 8.0, 11);
                      }},
        GeneratorCase{"fem",
                      [] { return FemLikeSpd(200, 10, 12); }},
        GeneratorCase{"random",
                      [] { return RandomSpd(150, 5, 13); }},
        GeneratorCase{"scrambled",
                      [] {
                          return Scramble(Grid2dLaplacian(10, 10), 14);
                      }}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
        return info.param.name;
    });

// ---- Structure-specific checks --------------------------------------------

TEST(Grid2d, SizeAndStencil)
{
    const CsrMatrix a = Grid2dLaplacian(4, 5);
    EXPECT_EQ(a.rows(), 20);
    // Interior points have 5 nonzeros (self + 4 neighbors).
    const MatrixStats s = ComputeMatrixStats(a);
    EXPECT_EQ(s.max_nnz_per_row, 5);
    EXPECT_EQ(s.min_nnz_per_row, 3); // corners
}

TEST(Grid3d, SizeAndStencil)
{
    const CsrMatrix a = Grid3dLaplacian(3, 3, 3);
    EXPECT_EQ(a.rows(), 27);
    const MatrixStats s = ComputeMatrixStats(a);
    EXPECT_EQ(s.max_nnz_per_row, 7); // center point
    EXPECT_EQ(s.min_nnz_per_row, 4); // corners
}

TEST(Grid2dNinePoint, DenserThanFivePoint)
{
    const CsrMatrix five = Grid2dLaplacian(8, 8);
    const CsrMatrix nine = Grid2dNinePoint(8, 8);
    EXPECT_GT(nine.nnz(), five.nnz());
    const MatrixStats s = ComputeMatrixStats(nine);
    EXPECT_EQ(s.max_nnz_per_row, 9);
}

TEST(Geometric, DegreeRoughlyMatchesTarget)
{
    const CsrMatrix a = RandomGeometricLaplacian(2000, 10.0, 21);
    const double avg =
        static_cast<double>(a.nnz() - a.rows()) /
        static_cast<double>(a.rows());
    EXPECT_GT(avg, 5.0);
    EXPECT_LT(avg, 20.0);
}

TEST(Geometric, SpatiallyCorrelatedIds)
{
    // After spatial relabeling, neighbours should have nearby ids:
    // average off-diagonal index distance far below the random
    // expectation of n/3.
    const Index n = 2000;
    const CsrMatrix a = RandomGeometricLaplacian(n, 10.0, 22);
    const MatrixStats s = ComputeMatrixStats(a);
    EXPECT_LT(s.avg_offdiag_distance, static_cast<double>(n) / 6.0);
}

TEST(Scramble, DestroysSpatialCorrelation)
{
    const CsrMatrix a = RandomGeometricLaplacian(2000, 10.0, 23);
    const CsrMatrix s = Scramble(a, 99);
    const double before = ComputeMatrixStats(a).avg_offdiag_distance;
    const double after = ComputeMatrixStats(s).avg_offdiag_distance;
    EXPECT_GT(after, 3.0 * before);
    EXPECT_EQ(a.nnz(), s.nnz());
}

TEST(Fem, DenseRows)
{
    const CsrMatrix a = FemLikeSpd(300, 16, 31);
    const MatrixStats s = ComputeMatrixStats(a);
    EXPECT_GT(s.avg_nnz_per_row, 12.0);
}

TEST(RandomSpd, RequestedFillRealized)
{
    const CsrMatrix a = RandomSpd(200, 4, 41);
    const double avg = static_cast<double>(a.nnz()) /
                       static_cast<double>(a.rows());
    EXPECT_GT(avg, 5.0); // ~2*4 off-diag (symmetrized) + diagonal
}

TEST(Suite, BenchmarkSuiteIsOrderedByParallelismClass)
{
    const auto suite = MakeBenchmarkSuite(0.2);
    ASSERT_GE(suite.size(), 6u);
    for (std::size_t i = 1; i < suite.size(); ++i) {
        EXPECT_LE(suite[i - 1].parallelism_class,
                  suite[i].parallelism_class);
    }
    for (const auto& m : suite) {
        EXPECT_GT(m.a.rows(), 0);
        EXPECT_FALSE(m.name.empty());
        EXPECT_FALSE(m.analog_of.empty());
    }
}

TEST(Suite, ScaleGrowsProblemSize)
{
    const auto small = MakeBenchmarkSuite(0.2);
    const auto large = MakeBenchmarkSuite(1.0);
    ASSERT_EQ(small.size(), large.size());
    for (std::size_t i = 0; i < small.size(); ++i) {
        EXPECT_LT(small[i].a.nnz(), large[i].a.nnz());
    }
}

TEST(Suite, SmallSuiteIsSmall)
{
    const auto suite = MakeSmallSuite();
    ASSERT_EQ(suite.size(), 3u);
    for (const auto& m : suite) {
        EXPECT_LE(m.a.rows(), 1024);
        ExpectSpd(m.a);
    }
}

TEST(Generators, InvalidArgsThrow)
{
    EXPECT_THROW(Grid2dLaplacian(0, 3), AzulError);
    EXPECT_THROW(RandomGeometricLaplacian(1, 4.0, 1), AzulError);
    EXPECT_THROW(FemLikeSpd(10, 10, 1), AzulError);
    EXPECT_THROW(RandomSpd(1, 2, 1), AzulError);
    EXPECT_THROW(MakeBenchmarkSuite(0.0), AzulError);
}

} // namespace
} // namespace azul
