/**
 * @file
 * Tests for the branch-prediction substrate: GHR, BTB, RAS, direction
 * predictors (learning properties), indirect predictor, and the
 * assembled BranchUnit's speculate/checkpoint/resolve/repair flows.
 */
#include <gtest/gtest.h>

#include "branch/unit.hpp"
#include "util/rng.hpp"

namespace sipre
{
namespace
{

TraceInstruction
condBranch(Addr pc, bool taken, Addr target)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = InstClass::kCondBranch;
    inst.taken = taken;
    inst.addr = target;
    return inst;
}

TraceInstruction
controlFlow(Addr pc, InstClass cls, Addr target)
{
    TraceInstruction inst;
    inst.pc = pc;
    inst.cls = cls;
    inst.taken = true;
    inst.addr = target;
    return inst;
}

// ------------------------------------------------------------------- GHR

TEST(GlobalHistory, ShiftAndLow)
{
    GlobalHistory ghr;
    ghr.shift(true);
    ghr.shift(false);
    ghr.shift(true);
    EXPECT_EQ(ghr.value(), 0b101u);
    EXPECT_EQ(ghr.low(2), 0b01u);
    EXPECT_EQ(ghr.low(64), 0b101u);
}

TEST(GlobalHistory, CheckpointRestore)
{
    GlobalHistory ghr;
    ghr.shift(true);
    const auto cp = ghr.checkpoint();
    ghr.shift(false);
    ghr.shift(false);
    ghr.restore(cp);
    EXPECT_EQ(ghr.value(), 1u);
}

// ------------------------------------------------------------------- BTB

TEST(Btb, MissThenHitAfterUpdate)
{
    Btb btb(64, 4);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    btb.update(0x1000, 0x2000, InstClass::kDirectJump);
    const auto entry = btb.lookup(0x1000);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->target, 0x2000u);
    EXPECT_EQ(entry->cls, InstClass::kDirectJump);
}

TEST(Btb, UpdateRefreshesTarget)
{
    Btb btb(64, 4);
    btb.update(0x1000, 0x2000, InstClass::kIndirectJump);
    btb.update(0x1000, 0x3000, InstClass::kIndirectJump);
    EXPECT_EQ(btb.lookup(0x1000)->target, 0x3000u);
}

TEST(Btb, LruEvictionWithinSet)
{
    Btb btb(8, 2); // 4 sets, 2 ways
    // Three branches in the same set (stride = sets * 4 bytes).
    const Addr stride = 4 * 4;
    btb.update(0x1000, 1, InstClass::kDirectJump);
    btb.update(0x1000 + stride, 2, InstClass::kDirectJump);
    btb.lookup(0x1000); // refresh
    btb.update(0x1000 + 2 * stride, 3, InstClass::kDirectJump);
    EXPECT_TRUE(btb.probe(0x1000).has_value());
    EXPECT_FALSE(btb.probe(0x1000 + stride).has_value());
    EXPECT_TRUE(btb.probe(0x1000 + 2 * stride).has_value());
    EXPECT_EQ(btb.stats().evictions, 1u);
}

TEST(Btb, ProbeHasNoRecencySideEffect)
{
    Btb btb(8, 2);
    const Addr stride = 4 * 4;
    btb.update(0x1000, 1, InstClass::kDirectJump);
    btb.update(0x1000 + stride, 2, InstClass::kDirectJump);
    btb.probe(0x1000); // should NOT refresh
    btb.update(0x1000 + 2 * stride, 3, InstClass::kDirectJump);
    EXPECT_FALSE(btb.probe(0x1000).has_value())
        << "oldest entry evicted despite probe";
}

// ------------------------------------------------------------------- RAS

TEST(Ras, PushPopLifo)
{
    ReturnAddressStack ras(8);
    ras.push(0x100);
    ras.push(0x200);
    EXPECT_EQ(ras.pop(), 0x200u);
    EXPECT_EQ(ras.pop(), 0x100u);
}

TEST(Ras, UnderflowReturnsNoAddr)
{
    ReturnAddressStack ras(4);
    EXPECT_EQ(ras.pop(), kNoAddr);
}

TEST(Ras, OverflowWrapsKeepingNewest)
{
    ReturnAddressStack ras(2);
    ras.push(1);
    ras.push(2);
    ras.push(3); // overwrites oldest
    EXPECT_EQ(ras.pop(), 3u);
    EXPECT_EQ(ras.pop(), 2u);
}

TEST(Ras, CheckpointRestore)
{
    ReturnAddressStack ras(8);
    ras.push(0xaa);
    const auto cp = ras.checkpoint();
    ras.push(0xbb);
    ras.pop();
    ras.pop();
    ras.restore(cp);
    EXPECT_EQ(ras.size(), 1u);
    EXPECT_EQ(ras.top(), 0xaau);
}

// --------------------------------------------------- direction predictors

class DirectionLearning
    : public ::testing::TestWithParam<DirectionPredictorKind>
{
  protected:
    std::unique_ptr<DirectionPredictor> predictor_ =
        makeDirectionPredictor(GetParam());
};

TEST_P(DirectionLearning, LearnsStronglyBiasedBranch)
{
    GlobalHistory ghr;
    // Train: always taken.
    for (int i = 0; i < 256; ++i) {
        const bool pred = predictor_->predict(0x1000, ghr);
        predictor_->update(0x1000, ghr, true, pred);
        ghr.shift(true);
    }
    int correct = 0;
    for (int i = 0; i < 100; ++i) {
        if (predictor_->predict(0x1000, ghr))
            ++correct;
        predictor_->update(0x1000, ghr, true, true);
        ghr.shift(true);
    }
    EXPECT_GE(correct, 95);
}

TEST_P(DirectionLearning, LearnsOppositeBiasesPerPc)
{
    GlobalHistory ghr;
    for (int i = 0; i < 512; ++i) {
        const Addr pc = (i % 2 == 0) ? 0x1000 : 0x2000;
        const bool outcome = pc == 0x1000;
        const bool pred = predictor_->predict(pc, ghr);
        predictor_->update(pc, ghr, outcome, pred);
        ghr.shift(outcome);
    }
    EXPECT_TRUE(predictor_->predict(0x1000, ghr));
    EXPECT_FALSE(predictor_->predict(0x2000, ghr));
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DirectionLearning,
    ::testing::Values(DirectionPredictorKind::kBimodal,
                      DirectionPredictorKind::kGshare,
                      DirectionPredictorKind::kHashedPerceptron,
                      DirectionPredictorKind::kTageLite,
                      DirectionPredictorKind::kLocal));

class HistoryLearning
    : public ::testing::TestWithParam<DirectionPredictorKind>
{
  protected:
    std::unique_ptr<DirectionPredictor> predictor_ =
        makeDirectionPredictor(GetParam());
};

TEST_P(HistoryLearning, LearnsAlternatingPattern)
{
    // taken, not-taken, taken, ... is linearly separable on history and
    // should be near-perfect for history-based predictors.
    GlobalHistory ghr;
    bool outcome = false;
    for (int i = 0; i < 4096; ++i) {
        outcome = !outcome;
        const bool pred = predictor_->predict(0x1234, ghr);
        predictor_->update(0x1234, ghr, outcome, pred);
        ghr.shift(outcome);
    }
    int correct = 0;
    for (int i = 0; i < 200; ++i) {
        outcome = !outcome;
        if (predictor_->predict(0x1234, ghr) == outcome)
            ++correct;
        predictor_->update(0x1234, ghr, outcome, true);
        ghr.shift(outcome);
    }
    EXPECT_GE(correct, 190);
}

INSTANTIATE_TEST_SUITE_P(
    HistoryKinds, HistoryLearning,
    ::testing::Values(DirectionPredictorKind::kGshare,
                      DirectionPredictorKind::kHashedPerceptron,
                      DirectionPredictorKind::kTageLite));

TEST(DirectionFactory, AllKindsConstruct)
{
    for (auto kind : {DirectionPredictorKind::kBimodal,
                      DirectionPredictorKind::kGshare,
                      DirectionPredictorKind::kHashedPerceptron,
                      DirectionPredictorKind::kTageLite,
                      DirectionPredictorKind::kLocal}) {
        EXPECT_NE(makeDirectionPredictor(kind), nullptr);
    }
}

TEST(LocalHistory, LearnsPerBranchPeriodicPattern)
{
    // Period-4 pattern T T T N, invisible to the *global* history when
    // other branches interleave, but trivial for local history.
    auto predictor = makeDirectionPredictor(DirectionPredictorKind::kLocal);
    GlobalHistory ghr;
    Rng rng(99);
    int visit = 0;
    for (int i = 0; i < 8000; ++i) {
        // Interleave noise branches that pollute global history.
        const bool noise_outcome = rng.chance(0.5);
        predictor->update(0x9000 + rng.below(64) * 4, ghr, noise_outcome,
                          false);
        ghr.shift(noise_outcome);

        const bool outcome = (visit++ % 4) != 3;
        const bool pred = predictor->predict(0x1234, ghr);
        predictor->update(0x1234, ghr, outcome, pred);
        ghr.shift(outcome);
    }
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        const bool outcome = (visit++ % 4) != 3;
        if (predictor->predict(0x1234, ghr) == outcome)
            ++correct;
        predictor->update(0x1234, ghr, outcome, true);
        ghr.shift(outcome);
    }
    EXPECT_GE(correct, 380);
}

// ---------------------------------------------------- indirect predictor

TEST(Indirect, LearnsTargetPerContext)
{
    IndirectPredictor pred(1024);
    const Addr pc = 0x4000;
    // Context A (path 1) -> target X, context B (path 2) -> target Y.
    for (int i = 0; i < 8; ++i) {
        pred.update(pc, 1, 0xAAAA);
        pred.update(pc, 2, 0xBBBB);
    }
    EXPECT_EQ(pred.predict(pc, 1), 0xAAAAu);
    EXPECT_EQ(pred.predict(pc, 2), 0xBBBBu);
}

TEST(Indirect, ColdLookupMisses)
{
    IndirectPredictor pred(1024);
    EXPECT_EQ(pred.predict(0x4000, 7), kNoAddr);
}

TEST(Indirect, ConfidenceResistsOneOffNoise)
{
    IndirectPredictor pred(1024);
    for (int i = 0; i < 8; ++i)
        pred.update(0x4000, 5, 0xAAAA);
    pred.update(0x4000, 5, 0xCCCC); // single deviation
    EXPECT_EQ(pred.predict(0x4000, 5), 0xAAAAu)
        << "hot target survives one-off noise";
}

// ------------------------------------------------------------ BranchUnit

BranchUnitConfig
unitConfig()
{
    BranchUnitConfig config;
    config.btb_entries = 512;
    config.btb_ways = 4;
    return config;
}

TEST(BranchUnit, BtbMissPredictsSequential)
{
    BranchUnit unit(unitConfig());
    const auto br = condBranch(0x1000, true, 0x2000);
    const auto pred = unit.predictAndSpeculate(br);
    EXPECT_FALSE(pred.btb_hit);
    EXPECT_FALSE(pred.predicted_taken);
    EXPECT_EQ(pred.predicted_target, br.nextPc());
}

TEST(BranchUnit, ResolveInsertsTakenBranchIntoBtb)
{
    BranchUnit unit(unitConfig());
    const auto br = condBranch(0x1000, true, 0x2000);
    const auto pred = unit.predictAndSpeculate(br);
    unit.resolve(br, pred);
    EXPECT_TRUE(unit.btb().probe(0x1000).has_value());
    EXPECT_EQ(unit.stats().btb_miss_taken, 1u);
}

TEST(BranchUnit, CallPushesRasReturnPops)
{
    BranchUnit unit(unitConfig());
    const auto call = controlFlow(0x1000, InstClass::kCall, 0x5000);
    // Warm the BTB first so the call is recognized.
    unit.resolve(call, unit.predictAndSpeculate(call));
    unit.predictAndSpeculate(call);
    EXPECT_EQ(unit.ras().top(), call.nextPc());

    const auto ret = controlFlow(0x5000, InstClass::kReturn, 0x1004);
    unit.resolve(ret, unit.predictAndSpeculate(ret));
    // Re-run: the return should now be predicted via the RAS.
    unit.predictAndSpeculate(call);
    const auto pred = unit.predictAndSpeculate(ret);
    EXPECT_TRUE(pred.btb_hit);
    EXPECT_EQ(pred.predicted_target, 0x1004u);
}

TEST(BranchUnit, CheckpointRestoresSpeculativeState)
{
    BranchUnit unit(unitConfig());
    const auto call = controlFlow(0x1000, InstClass::kCall, 0x5000);
    unit.resolve(call, unit.predictAndSpeculate(call));

    const auto cp = unit.checkpoint();
    const auto ghr_before = unit.history().value();
    unit.predictAndSpeculate(call); // pushes RAS, shifts GHR
    EXPECT_NE(unit.history().value(), ghr_before);
    unit.restore(cp);
    EXPECT_EQ(unit.history().value(), ghr_before);
}

TEST(BranchUnit, RepairHistoryAppliesCommittedOutcome)
{
    BranchUnit unit(unitConfig());
    const auto br = condBranch(0x1000, true, 0x2000);
    unit.resolve(br, unit.predictAndSpeculate(br)); // now in BTB

    const auto cp = unit.checkpoint();
    unit.predictAndSpeculate(br);
    unit.repairHistory(cp, br, /*btb_hit_now=*/true);
    EXPECT_EQ(unit.history().value() & 1u, 1u)
        << "repaired history ends with the committed (taken) outcome";
}

TEST(BranchUnit, GhrFilterKeepsBtbMissesOutOfHistory)
{
    BranchUnitConfig config = unitConfig();
    config.ghr_filter_btb_miss = true;
    BranchUnit filtered(config);
    const auto before = filtered.history().value();
    // Seed the history with a taken branch the BTB knows.
    const auto jump = controlFlow(0x8000, InstClass::kDirectJump, 0x9000);
    filtered.resolve(jump, filtered.predictAndSpeculate(jump));
    filtered.predictAndSpeculate(jump);
    const auto seeded = filtered.history().value();
    EXPECT_NE(seeded, before);

    const auto br = condBranch(0x9000, false, 0xa000);
    filtered.predictAndSpeculate(br); // BTB miss: must not shift
    EXPECT_EQ(filtered.history().value(), seeded);

    config.ghr_filter_btb_miss = false;
    BranchUnit unfiltered(config);
    unfiltered.resolve(jump, unfiltered.predictAndSpeculate(jump));
    unfiltered.predictAndSpeculate(jump);
    const auto unfiltered_seeded = unfiltered.history().value();
    unfiltered.predictAndSpeculate(br); // shifts a zero in
    EXPECT_EQ(unfiltered.history().value(), unfiltered_seeded << 1);
}

TEST(BranchUnit, CondMispredictionsCounted)
{
    BranchUnit unit(unitConfig());
    const auto br = condBranch(0x1000, true, 0x2000);
    // First resolve puts it in the BTB; afterwards train always-taken,
    // then flip the outcome once.
    auto pred = unit.predictAndSpeculate(br);
    unit.resolve(br, pred);
    for (int i = 0; i < 64; ++i) {
        pred = unit.predictAndSpeculate(br);
        unit.resolve(br, pred);
    }
    const auto base = unit.stats().cond_mispredictions;
    auto flipped = br;
    flipped.taken = false;
    pred = unit.predictAndSpeculate(flipped);
    unit.resolve(flipped, pred);
    EXPECT_EQ(unit.stats().cond_mispredictions, base + 1);
}

TEST(BranchUnit, ShadowProbeFollowsBtb)
{
    BranchUnit unit(unitConfig());
    EXPECT_FALSE(unit.shadowProbe(0x1000).has_value());
    const auto jump = controlFlow(0x1000, InstClass::kDirectJump, 0x3000);
    unit.resolve(jump, unit.predictAndSpeculate(jump));
    const auto probe = unit.shadowProbe(0x1000);
    ASSERT_TRUE(probe.has_value());
    EXPECT_TRUE(probe->taken);
    EXPECT_EQ(probe->target, 0x3000u);
}

TEST(BranchUnit, ShadowProbeHasNoSideEffects)
{
    BranchUnit unit(unitConfig());
    const auto call = controlFlow(0x1000, InstClass::kCall, 0x5000);
    unit.resolve(call, unit.predictAndSpeculate(call));
    const auto ghr = unit.history().value();
    const auto ras_size = unit.ras().size();
    unit.shadowProbe(0x1000);
    EXPECT_EQ(unit.history().value(), ghr);
    EXPECT_EQ(unit.ras().size(), ras_size);
}

TEST(BranchUnit, PathHistoryChangesWithTargets)
{
    BranchUnit unit(unitConfig());
    const auto jump = controlFlow(0x1000, InstClass::kDirectJump, 0x3000);
    unit.resolve(jump, unit.predictAndSpeculate(jump));
    const auto before = unit.pathHistory();
    unit.predictAndSpeculate(jump);
    EXPECT_NE(unit.pathHistory(), before);
}

} // namespace
} // namespace sipre
