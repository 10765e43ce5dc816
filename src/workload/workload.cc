#include "workload.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.hh"

namespace mmgen::workload {

std::string
rateKindName(RateKind k)
{
    switch (k) {
    case RateKind::Poisson: return "poisson";
    case RateKind::MarkovModulated: return "markov-modulated";
    case RateKind::Diurnal: return "diurnal";
    }
    return "?";
}

std::string
sizeKindName(SizeKind k)
{
    switch (k) {
    case SizeKind::Fixed: return "fixed";
    case SizeKind::LogNormal: return "log-normal";
    case SizeKind::Pareto: return "pareto";
    }
    return "?";
}

void
RateProcess::validate(const std::string& className) const
{
    if (kind == RateKind::MarkovModulated) {
        MMGEN_CHECK(std::isfinite(burstRateMultiplier) &&
                        burstRateMultiplier >= 1.0,
                    "class '" << className
                              << "': burst rate multiplier must be "
                                 ">= 1, got "
                              << burstRateMultiplier);
        MMGEN_CHECK(std::isfinite(burstMeanSeconds) &&
                        burstMeanSeconds > 0.0,
                    "class '" << className
                              << "': burst mean sojourn must be "
                                 "positive, got "
                              << burstMeanSeconds);
        MMGEN_CHECK(std::isfinite(calmMeanSeconds) &&
                        calmMeanSeconds > 0.0,
                    "class '" << className
                              << "': calm mean sojourn must be "
                                 "positive, got "
                              << calmMeanSeconds);
    }
    if (kind == RateKind::Diurnal) {
        MMGEN_CHECK(std::isfinite(diurnalAmplitude) &&
                        diurnalAmplitude >= 0.0 &&
                        diurnalAmplitude < 1.0,
                    "class '" << className
                              << "': diurnal amplitude must be in "
                                 "[0, 1), got "
                              << diurnalAmplitude);
        MMGEN_CHECK(std::isfinite(diurnalPeriodSeconds) &&
                        diurnalPeriodSeconds > 0.0,
                    "class '" << className
                              << "': diurnal period must be "
                                 "positive, got "
                              << diurnalPeriodSeconds);
        MMGEN_CHECK(std::isfinite(diurnalPhase),
                    "class '" << className
                              << "': diurnal phase must be finite");
    }
}

double
SizeDistribution::sample(Rng& rng) const
{
    double v = scale;
    switch (kind) {
    case SizeKind::Fixed:
        return scale; // no draw: Fixed perturbs no stream
    case SizeKind::LogNormal:
        v = rng.logNormal(std::log(scale), sigma);
        break;
    case SizeKind::Pareto:
        // Inverse-CDF: x = xm * (1 - u)^(-1/alpha); u in [0, 1).
        v = scale * std::pow(1.0 - rng.uniform(), -1.0 / alpha);
        break;
    }
    return std::clamp(v, minScale, maxScale);
}

void
SizeDistribution::validate(const std::string& className) const
{
    MMGEN_CHECK(std::isfinite(scale) && scale > 0.0,
                "class '" << className
                          << "': size scale must be positive and "
                             "finite, got "
                          << scale);
    MMGEN_CHECK(std::isfinite(minScale) && minScale > 0.0 &&
                    std::isfinite(maxScale) && maxScale >= minScale,
                "class '" << className
                          << "': size clamp must satisfy 0 < min <= "
                             "max, got ["
                          << minScale << ", " << maxScale << "]");
    if (kind == SizeKind::LogNormal)
        MMGEN_CHECK(std::isfinite(sigma) && sigma >= 0.0,
                    "class '" << className
                              << "': log-normal sigma must be "
                                 ">= 0, got "
                              << sigma);
    if (kind == SizeKind::Pareto)
        MMGEN_CHECK(std::isfinite(alpha) && alpha > 1.0,
                    "class '" << className
                              << "': pareto tail index must be > 1 "
                                 "(finite mean), got "
                              << alpha);
}

bool
WorkloadConfig::isPlainPoisson() const
{
    if (classes.size() != 1)
        return false;
    const ClientClass& c = classes.front();
    return c.weight == 1.0 && c.priority == 0 &&
           c.rate.kind == RateKind::Poisson && c.size.isUnit();
}

void
WorkloadConfig::validate() const
{
    MMGEN_CHECK(!classes.empty(),
                "workload mix has no client classes");
    double weight_sum = 0.0;
    for (const ClientClass& c : classes) {
        MMGEN_CHECK(!c.name.empty(), "client class with empty name");
        MMGEN_CHECK(std::isfinite(c.weight) && c.weight > 0.0,
                    "class '" << c.name
                              << "': weight must be positive and "
                                 "finite, got "
                              << c.weight);
        MMGEN_CHECK(c.priority >= 0,
                    "class '" << c.name
                              << "': priority must be >= 0, got "
                              << c.priority);
        c.rate.validate(c.name);
        c.size.validate(c.name);
        weight_sum += c.weight;
    }
    MMGEN_CHECK(std::abs(weight_sum - 1.0) <= 1e-6,
                "class weights must sum to 1, got " << weight_sum);
}

WorkloadConfig
namedWorkloadMix(const std::string& name)
{
    WorkloadConfig mix;
    if (name == "poisson") {
        mix.classes.push_back(ClientClass{});
        return mix;
    }
    if (name == "interactive") {
        ClientClass fg;
        fg.name = "interactive";
        fg.weight = 0.7;
        fg.priority = 0;
        fg.size.kind = SizeKind::LogNormal;
        fg.size.sigma = 0.35;
        ClientClass bg;
        bg.name = "batch";
        bg.weight = 0.3;
        bg.priority = 1;
        bg.size.kind = SizeKind::Pareto;
        bg.size.alpha = 2.5;
        mix.classes = {fg, bg};
        return mix;
    }
    if (name == "bursty") {
        ClientClass c;
        c.name = "bursty";
        c.rate.kind = RateKind::MarkovModulated;
        c.rate.burstRateMultiplier = 4.0;
        c.rate.burstMeanSeconds = 20.0;
        c.rate.calmMeanSeconds = 80.0;
        c.size.kind = SizeKind::LogNormal;
        c.size.sigma = 0.4;
        mix.classes = {c};
        return mix;
    }
    if (name == "diurnal") {
        ClientClass c;
        c.name = "diurnal";
        c.rate.kind = RateKind::Diurnal;
        c.rate.diurnalAmplitude = 0.6;
        c.rate.diurnalPeriodSeconds = 240.0;
        c.size.kind = SizeKind::LogNormal;
        c.size.sigma = 0.3;
        mix.classes = {c};
        return mix;
    }
    if (name == "production") {
        ClientClass fg;
        fg.name = "interactive";
        fg.weight = 0.5;
        fg.priority = 0;
        fg.rate.kind = RateKind::MarkovModulated;
        fg.rate.burstRateMultiplier = 3.0;
        fg.rate.burstMeanSeconds = 15.0;
        fg.rate.calmMeanSeconds = 60.0;
        fg.size.kind = SizeKind::LogNormal;
        fg.size.sigma = 0.3;
        ClientClass std_tier;
        std_tier.name = "standard";
        std_tier.weight = 0.3;
        std_tier.priority = 1;
        std_tier.size.kind = SizeKind::LogNormal;
        std_tier.size.sigma = 0.5;
        ClientClass video;
        video.name = "offline-video";
        video.weight = 0.2;
        video.priority = 2;
        video.size.kind = SizeKind::Pareto;
        video.size.scale = 2.0;
        video.size.alpha = 2.0;
        mix.classes = {fg, std_tier, video};
        return mix;
    }
    MMGEN_CHECK(false, "unknown workload mix '"
                           << name << "' (poisson|interactive|bursty|"
                              "diurnal|production)");
}

std::vector<std::string>
workloadMixNames()
{
    return {"poisson", "interactive", "bursty", "diurnal",
            "production"};
}

ArrivalGenerator::ArrivalGenerator(std::uint64_t seed, double rate)
    : ArrivalGenerator(seed, rate, namedWorkloadMix("poisson"))
{}

ArrivalGenerator::ArrivalGenerator(std::uint64_t seed, double rate,
                                   const WorkloadConfig& mix)
{
    mix.validate();
    MMGEN_CHECK(std::isfinite(rate) && rate > 0.0,
                "arrival rate must be positive and finite, got "
                    << rate);
    const bool plain = mix.isPlainPoisson();
    for (std::size_t i = 0; i < mix.classes.size(); ++i) {
        const ClientClass& k = mix.classes[i];
        ClassState cs;
        cs.klass = k;
        // Two split streams per class: gaps and sizes. Stream ids are
        // a function of the class *index* so class i's arrival times
        // do not change when another class is added to the mix. A
        // plain-Poisson class keeps the legacy unsplit stream (its
        // unit size draws nothing).
        cs.arrivalRng =
            plain ? Rng(seed)
                  : Rng::stream(seed, kWorkloadStreamBase +
                                          2 * static_cast<std::uint64_t>(i));
        cs.sizeRng = Rng::stream(
            seed,
            kWorkloadStreamBase + 2 * static_cast<std::uint64_t>(i) + 1);
        cs.meanRate = rate * k.weight;
        if (k.rate.kind == RateKind::MarkovModulated) {
            // Pick calm/burst rates whose sojourn-weighted mean is the
            // nominal class rate.
            const double fb = k.rate.burstMeanSeconds /
                              (k.rate.burstMeanSeconds +
                               k.rate.calmMeanSeconds);
            cs.calmRate = cs.meanRate /
                          ((1.0 - fb) +
                           k.rate.burstRateMultiplier * fb);
            cs.burstRate = cs.calmRate * k.rate.burstRateMultiplier;
            cs.inBurst = false;
            cs.stateEnd = cs.arrivalRng.exponential(
                1.0 / k.rate.calmMeanSeconds);
        }
        classes_.push_back(std::move(cs));
    }
    for (ClassState& cs : classes_)
        advance(cs);
}

void
ArrivalGenerator::advance(ClassState& cs)
{
    const RateProcess& rp = cs.klass.rate;
    switch (rp.kind) {
    case RateKind::Poisson:
        cs.nextTime += cs.arrivalRng.exponential(cs.meanRate);
        return;
    case RateKind::MarkovModulated: {
        // Walk calm/burst sojourns until a gap lands inside the
        // current state; crossing a boundary discards the partial gap
        // (memorylessness makes the re-draw exact).
        while (true) {
            const double r = cs.inBurst ? cs.burstRate : cs.calmRate;
            const double gap = cs.arrivalRng.exponential(r);
            if (cs.nextTime + gap <= cs.stateEnd) {
                cs.nextTime += gap;
                return;
            }
            cs.nextTime = cs.stateEnd;
            cs.inBurst = !cs.inBurst;
            const double sojourn = cs.inBurst
                                       ? rp.burstMeanSeconds
                                       : rp.calmMeanSeconds;
            cs.stateEnd += cs.arrivalRng.exponential(1.0 / sojourn);
        }
    }
    case RateKind::Diurnal: {
        // Thinning against the peak rate: exact inhomogeneous-Poisson
        // sampling for the sinusoidal curve.
        const double peak =
            cs.meanRate * (1.0 + rp.diurnalAmplitude);
        while (true) {
            cs.nextTime += cs.arrivalRng.exponential(peak);
            const double phase =
                2.0 * std::numbers::pi *
                (cs.nextTime / rp.diurnalPeriodSeconds +
                 rp.diurnalPhase);
            const double rate_now =
                cs.meanRate *
                (1.0 + rp.diurnalAmplitude * std::sin(phase));
            if (cs.arrivalRng.uniform() * peak <= rate_now)
                return;
        }
    }
    }
}

Arrival
ArrivalGenerator::next()
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < classes_.size(); ++i) {
        if (classes_[i].nextTime < classes_[best].nextTime)
            best = i;
    }
    ClassState& cs = classes_[best];
    Arrival a;
    a.time = cs.nextTime;
    a.classIndex = static_cast<int>(best);
    a.sizeScale = cs.klass.size.sample(cs.sizeRng);
    a.priority = cs.klass.priority;
    advance(cs);
    return a;
}

} // namespace mmgen::workload
