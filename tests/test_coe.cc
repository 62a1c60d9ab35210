/**
 * @file
 * Unit tests for the CoE model: validation, routing, dependency graph,
 * usage profiles, and the circuit-board builders.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "coe/board_builder.h"
#include "coe/dependency.h"
#include "coe/usage.h"

namespace coserve {
namespace {

CoEModel
twoStageModel()
{
    // Two components sharing one detector; one component without.
    std::vector<Expert> experts;
    for (int i = 0; i < 3; ++i) {
        Expert e;
        e.id = i;
        e.name = "cls" + std::to_string(i);
        e.arch = ArchId::ResNet101;
        e.role = ExpertRole::Preliminary;
        e.weightBytes = resnet101().weightBytes;
        experts.push_back(e);
    }
    Expert det;
    det.id = 3;
    det.name = "det0";
    det.arch = ArchId::YoloV5m;
    det.role = ExpertRole::Subsequent;
    det.weightBytes = yolov5m().weightBytes;
    experts.push_back(det);

    std::vector<ComponentType> comps(3);
    for (int i = 0; i < 3; ++i) {
        comps[i].id = i;
        comps[i].name = "comp" + std::to_string(i);
        comps[i].classifier = i;
        comps[i].imageProb = (i == 0) ? 0.6 : 0.2;
        comps[i].defectProb = 0.5;
    }
    comps[0].detector = 3;
    comps[1].detector = 3;
    return CoEModel("twostage", std::move(experts), std::move(comps));
}

TEST(CoEModelTest, Accessors)
{
    const CoEModel m = twoStageModel();
    EXPECT_EQ(m.numExperts(), 4u);
    EXPECT_EQ(m.numComponents(), 3u);
    EXPECT_EQ(m.expert(3).role, ExpertRole::Subsequent);
    EXPECT_EQ(m.component(0).detector, 3);
    EXPECT_EQ(m.component(2).detector, kNoExpert);
    EXPECT_EQ(m.totalWeightBytes(),
              3 * resnet101().weightBytes + yolov5m().weightBytes);
}

TEST(DependencyGraphTest, EdgesMatchRules)
{
    const CoEModel m = twoStageModel();
    const DependencyGraph g(m);
    EXPECT_TRUE(g.isSubsequent(3));
    EXPECT_FALSE(g.isSubsequent(0));
    const auto &pre = g.preliminariesOf(3);
    EXPECT_EQ(pre.size(), 2u);
    EXPECT_NE(std::find(pre.begin(), pre.end(), 0), pre.end());
    EXPECT_NE(std::find(pre.begin(), pre.end(), 1), pre.end());
}

TEST(UsageProfileTest, ExactProbabilities)
{
    const CoEModel m = twoStageModel();
    const UsageProfile u = UsageProfile::exact(m);
    // Per image: classifier weights 0.6/0.2/0.2; detector weight
    // (0.6 + 0.2) * (1 - 0.5) = 0.4. Total weight 1.4.
    EXPECT_NEAR(u.probability(0), 0.6 / 1.4, 1e-9);
    EXPECT_NEAR(u.probability(1), 0.2 / 1.4, 1e-9);
    EXPECT_NEAR(u.probability(2), 0.2 / 1.4, 1e-9);
    EXPECT_NEAR(u.probability(3), 0.4 / 1.4, 1e-9);
}

TEST(UsageProfileTest, OrderingAndCdf)
{
    const CoEModel m = twoStageModel();
    const UsageProfile u = UsageProfile::exact(m);
    const auto &order = u.byDescendingUsage();
    EXPECT_EQ(order[0], 0); // classifier of the common component
    EXPECT_EQ(order[1], 3); // shared detector
    EXPECT_NEAR(u.topKMass(u.size()), 1.0, 1e-9);
    for (std::size_t k = 1; k <= u.size(); ++k)
        EXPECT_GE(u.topKMass(k), u.topKMass(k - 1));
    EXPECT_NEAR(u.topKMass(2), (0.6 + 0.4) / 1.4, 1e-9);
    EXPECT_NEAR(u.topKMass(100), 1.0, 1e-9); // clamped
    EXPECT_EQ(u.topKMass(0), 0.0);
}

TEST(BoardBuilderTest, BoardACounts)
{
    const BoardSpec spec = boardA();
    const CoEModel m = buildBoard(spec);
    EXPECT_EQ(m.numComponents(), 352u);
    EXPECT_EQ(m.numExperts(), 352u + 28u);
    // Paper Section 2.2: the deployment needs > 60 GB of experts.
    EXPECT_GT(m.totalWeightBytes(), 60ll * 1000 * 1000 * 1000);
}

TEST(BoardBuilderTest, BoardBCounts)
{
    const CoEModel m = buildBoard(boardB());
    EXPECT_EQ(m.numComponents(), 342u);
}

TEST(BoardBuilderTest, ImageProbsNormalized)
{
    const CoEModel m = buildBoard(boardA());
    double sum = 0.0;
    for (const ComponentType &c : m.components())
        sum += c.imageProb;
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(BoardBuilderTest, UsageCdfShapeMatchesFigure11)
{
    // Figure 11 anchor: the top ~35 experts carry roughly 60% of the
    // usage; the curve must lie strictly between the linear and step
    // extremes.
    const CoEModel m = buildBoard(boardA());
    const UsageProfile u = UsageProfile::exact(m);
    const double top35 = u.topKMass(35);
    EXPECT_GT(top35, 0.45);
    EXPECT_LT(top35, 0.80);
    // Strictly above the linear CDF...
    EXPECT_GT(top35, 35.0 / static_cast<double>(m.numExperts()));
    // ...and strictly below the step CDF.
    EXPECT_LT(top35, 1.0);
}

TEST(BoardBuilderTest, DetectorsShared)
{
    const CoEModel m = buildBoard(boardA());
    // Count distinct detectors actually referenced.
    std::vector<int> uses(m.numExperts(), 0);
    for (const ComponentType &c : m.components()) {
        if (c.detector != kNoExpert)
            uses[static_cast<std::size_t>(c.detector)] += 1;
    }
    int shared = 0;
    for (int n : uses)
        shared += n >= 2 ? 1 : 0;
    EXPECT_GT(shared, 10) << "detection experts should be shared";
}

TEST(BoardBuilderTest, DeterministicForSeed)
{
    const CoEModel a = buildBoard(boardA());
    const CoEModel b = buildBoard(boardA());
    ASSERT_EQ(a.numComponents(), b.numComponents());
    for (std::size_t i = 0; i < a.numComponents(); ++i) {
        const auto id = static_cast<ComponentId>(i);
        EXPECT_EQ(a.component(id).detector, b.component(id).detector);
        EXPECT_DOUBLE_EQ(a.component(id).imageProb,
                         b.component(id).imageProb);
    }
}

TEST(BoardBuilderTest, TinyBoardIsValid)
{
    const CoEModel m = buildBoard(tinyBoard());
    EXPECT_EQ(m.numComponents(), 12u);
    EXPECT_EQ(m.numExperts(), 15u);
}

} // namespace
} // namespace coserve
