/**
 * @file
 * Tests for the workload generator: config validation (one test per
 * rejection), stream-split determinism, and the degenerate-mix
 * bit-identity contract with the legacy Poisson sampler.
 */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "util/logging.hh"
#include "workload/workload.hh"

namespace mmgen::workload {
namespace {

WorkloadConfig
twoClassMix()
{
    WorkloadConfig mix;
    ClientClass a;
    a.name = "interactive";
    a.weight = 0.75;
    ClientClass b;
    b.name = "batch";
    b.weight = 0.25;
    b.priority = 1;
    b.size.kind = SizeKind::Pareto;
    mix.classes = {a, b};
    return mix;
}

TEST(WorkloadConfig, EmptyMixRejected)
{
    EXPECT_THROW(WorkloadConfig{}.validate(), FatalError);
}

TEST(WorkloadConfig, EmptyClassNameRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].name.clear();
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, NegativeWeightRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].weight = -0.75;
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, ZeroWeightRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[1].weight = 0.0;
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, NonNormalizedWeightsRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].weight = 0.9; // sums to 1.15
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, NegativePriorityRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[1].priority = -1;
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, BurstMultiplierBelowOneRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].rate.kind = RateKind::MarkovModulated;
    mix.classes[0].rate.burstRateMultiplier = 0.5;
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, NonPositiveSojournRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].rate.kind = RateKind::MarkovModulated;
    mix.classes[0].rate.calmMeanSeconds = 0.0;
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, DiurnalAmplitudeOutOfRangeRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].rate.kind = RateKind::Diurnal;
    mix.classes[0].rate.diurnalAmplitude = 1.0; // must be < 1
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, NonPositiveSizeScaleRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].size.scale = 0.0;
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, ParetoAlphaAtMostOneRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[1].size.kind = SizeKind::Pareto;
    mix.classes[1].size.alpha = 1.0; // infinite mean
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, InvertedClampRejected)
{
    WorkloadConfig mix = twoClassMix();
    mix.classes[0].size.minScale = 4.0;
    mix.classes[0].size.maxScale = 2.0;
    EXPECT_THROW(mix.validate(), FatalError);
}

TEST(WorkloadConfig, ValidMixPasses)
{
    EXPECT_NO_THROW(twoClassMix().validate());
    for (const std::string& name : workloadMixNames())
        EXPECT_NO_THROW(namedWorkloadMix(name).validate()) << name;
}

TEST(WorkloadConfig, UnknownNamedMixThrows)
{
    EXPECT_THROW(namedWorkloadMix("nope"), FatalError);
}

TEST(WorkloadConfig, PlainPoissonDetection)
{
    EXPECT_TRUE(namedWorkloadMix("poisson").isPlainPoisson());
    EXPECT_FALSE(twoClassMix().isPlainPoisson());
    EXPECT_FALSE(namedWorkloadMix("production").isPlainPoisson());
}

TEST(ArrivalGenerator, MatchesInlineGapSampler)
{
    // Plain Poisson: successive exponential gaps on the unsplit
    // Rng(seed) stream, exactly what the simulators used to inline.
    ArrivalGenerator gen(7, 2.0);
    Rng rng(7);
    double t = 0.0;
    for (int i = 0; i < 1000; ++i) {
        t += rng.exponential(2.0);
        const Arrival a = gen.next();
        EXPECT_EQ(a.time, t); // bit-identical, not just close
        EXPECT_EQ(a.classIndex, 0);
        EXPECT_EQ(a.sizeScale, 1.0);
        EXPECT_EQ(a.priority, 0);
    }
}

TEST(ArrivalGenerator, DegenerateMixIsByteIdenticalToLegacy)
{
    ArrivalGenerator legacy(7, 4.0);
    ArrivalGenerator degenerate(7, 4.0, namedWorkloadMix("poisson"));
    for (int i = 0; i < 1000; ++i) {
        const Arrival a = legacy.next();
        const Arrival b = degenerate.next();
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.sizeScale, 1.0);
        EXPECT_EQ(b.sizeScale, 1.0);
        EXPECT_EQ(b.priority, 0);
    }
}

TEST(ArrivalGenerator, CopyOwnsItsClasses)
{
    // A copy keeps drawing the same trace after its source is gone: it
    // reads no class descriptor of the source (the sanitize build
    // checks every read).
    std::optional<ArrivalGenerator> source(
        std::in_place, 11, 6.0, namedWorkloadMix("production"));
    ArrivalGenerator copy = *source;
    ArrivalGenerator reference(11, 6.0, namedWorkloadMix("production"));
    source.reset();
    for (int i = 0; i < 500; ++i) {
        const Arrival a = copy.next();
        const Arrival b = reference.next();
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.sizeScale, b.sizeScale);
        EXPECT_EQ(a.priority, b.priority);
    }
}

TEST(ArrivalGenerator, SameSeedSameTrace)
{
    for (const std::string& name : workloadMixNames()) {
        ArrivalGenerator a(11, 6.0, namedWorkloadMix(name));
        ArrivalGenerator b(11, 6.0, namedWorkloadMix(name));
        for (int i = 0; i < 500; ++i) {
            const Arrival x = a.next();
            const Arrival y = b.next();
            EXPECT_EQ(x.time, y.time) << name;
            EXPECT_EQ(x.classIndex, y.classIndex) << name;
            EXPECT_EQ(x.sizeScale, y.sizeScale) << name;
        }
    }
}

TEST(ArrivalGenerator, DifferentSeedsDiffer)
{
    ArrivalGenerator a(1, 6.0, namedWorkloadMix("production"));
    ArrivalGenerator b(2, 6.0, namedWorkloadMix("production"));
    bool any_diff = false;
    for (int i = 0; i < 100; ++i)
        any_diff |= a.next().time != b.next().time;
    EXPECT_TRUE(any_diff);
}

TEST(ArrivalGenerator, StreamSplitIsolationAcrossClasses)
{
    // Adding a class must not perturb an existing class's own draws:
    // per-class streams are keyed by class index, not shared. The
    // nonzero priority keeps the single-class mix off the legacy
    // fast path (which has no per-class streams to compare against).
    WorkloadConfig one;
    ClientClass c;
    c.name = "steady";
    c.weight = 1.0;
    c.priority = 1;
    one.classes = {c};

    WorkloadConfig two = one;
    two.classes[0].weight = 0.5;
    ClientClass d;
    d.name = "extra";
    d.weight = 0.5;
    two.classes.push_back(d);

    // Halving the weight halves class 0's rate; gaps scale by exactly
    // 2x because the underlying uniform draws are identical. Compare
    // through that scaling to confirm the draw sequences align.
    ArrivalGenerator genOne(5, 2.0, one);
    ArrivalGenerator genTwo(5, 2.0, two);
    std::vector<double> onlyClassZero;
    while (onlyClassZero.size() < 50) {
        const Arrival a = genTwo.next();
        if (a.classIndex == 0)
            onlyClassZero.push_back(a.time);
    }
    for (std::size_t i = 0; i < onlyClassZero.size(); ++i) {
        const double t = genOne.next().time;
        EXPECT_NEAR(onlyClassZero[i], 2.0 * t, 2.0 * t * 1e-12);
    }
}

TEST(ArrivalGenerator, ArrivalsAreTimeOrdered)
{
    for (const std::string& name : workloadMixNames()) {
        ArrivalGenerator gen(3, 8.0, namedWorkloadMix(name));
        double prev = 0.0;
        for (int i = 0; i < 2000; ++i) {
            const Arrival a = gen.next();
            EXPECT_GE(a.time, prev) << name;
            prev = a.time;
        }
    }
}

TEST(ArrivalGenerator, MeanRateMatchesNominal)
{
    // Every rate process is normalized so the time-averaged rate is
    // the nominal class rate; over a long window the empirical rate
    // must land near 8 req/s for each mix.
    for (const std::string& name : workloadMixNames()) {
        ArrivalGenerator gen(13, 8.0, namedWorkloadMix(name));
        int n = 0;
        double last = 0.0;
        while (true) {
            const Arrival a = gen.next();
            if (a.time > 2000.0)
                break;
            last = a.time;
            ++n;
        }
        const double rate = static_cast<double>(n) / last;
        EXPECT_NEAR(rate, 8.0, 8.0 * 0.1) << name;
    }
}

TEST(ArrivalGenerator, SizesRespectClamp)
{
    ArrivalGenerator gen(17, 8.0, namedWorkloadMix("production"));
    bool any_nonunit = false;
    for (int i = 0; i < 2000; ++i) {
        const Arrival a = gen.next();
        EXPECT_GE(a.sizeScale, 0.125);
        EXPECT_LE(a.sizeScale, 8.0);
        any_nonunit |= a.sizeScale != 1.0;
    }
    EXPECT_TRUE(any_nonunit);
}

TEST(SizeDistribution, FixedDrawsNothing)
{
    SizeDistribution fixed;
    fixed.scale = 2.0;
    Rng a(9), b(9);
    EXPECT_EQ(fixed.sample(a), 2.0);
    // The generator state is untouched by Fixed sampling.
    EXPECT_EQ(a.exponential(1.0), b.exponential(1.0));
}

} // namespace
} // namespace mmgen::workload
