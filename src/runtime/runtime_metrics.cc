#include "runtime/runtime_metrics.hh"

#include "runtime/parallel.hh"
#include "runtime/profile_cache.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace mmgen::runtime {

namespace {

/** `<prefix>.{hits,misses,evictions,entries}` and `<prefix>.hit_rate`. */
void
publishCacheMetrics(telemetry::MetricsRegistry& registry,
                    const std::string& prefix,
                    const SingleFlightStats& stats)
{
    registry.counter(prefix + ".hits").add(stats.hits);
    registry.counter(prefix + ".misses").add(stats.misses);
    registry.counter(prefix + ".evictions").add(stats.evictions);
    registry.counter(prefix + ".entries").add(stats.entries);
    registry.gauge(prefix + ".hit_rate").set(stats.hitRate());
}

/** The `mmgen stats` rows of one cache, each labelled `<name> ...`. */
void
addCacheRows(TextTable& table, const std::string& name,
             const SingleFlightStats& stats)
{
    table.addRow({name + " lookups", std::to_string(stats.lookups())});
    table.addRow({name + " hits", std::to_string(stats.hits)});
    table.addRow({name + " misses", std::to_string(stats.misses)});
    table.addRow({name + " evictions", std::to_string(stats.evictions)});
    table.addRow({name + " entries", std::to_string(stats.entries)});
    table.addRow({name + " hit rate", formatPercent(stats.hitRate())});
}

} // namespace

void
publishRuntimeMetrics(telemetry::MetricsRegistry& registry)
{
    const ProfileCacheStats profiles = ProfileCache::global().stats();
    publishCacheMetrics(registry, "runtime.profile_cache", profiles);
    registry.counter("runtime.profile_cache.disk_hits")
        .add(profiles.diskHits);
    registry.counter("runtime.profile_cache.disk_misses")
        .add(profiles.diskMisses);
    registry.counter("runtime.profile_cache.disk_writes")
        .add(profiles.diskWrites);
    registry.counter("runtime.profile_cache.disk_corrupt")
        .add(profiles.diskCorrupt);
    publishCacheMetrics(registry, "runtime.plan_cache", planCacheStats());

    const PoolStats pool = poolStats();
    registry.counter("runtime.pool.loops_run").add(pool.loopsRun);
    registry.counter("runtime.pool.indices_executed")
        .add(pool.indicesExecuted);
    registry.gauge("runtime.pool.threads")
        .set(static_cast<double>(pool.threads));
}

std::string
runtimeStatsTable()
{
    const PoolStats pool = poolStats();
    const ProfileCacheStats profiles = ProfileCache::global().stats();

    TextTable table({"Counter", "Value"});
    table.addRow({"pool threads", std::to_string(pool.threads)});
    table.addRow({"pool parallel loops", std::to_string(pool.loopsRun)});
    table.addRow({"pool indices executed",
                  std::to_string(pool.indicesExecuted)});
    addCacheRows(table, "profile-cache", profiles);
    table.addRow({"profile-cache disk hits",
                  std::to_string(profiles.diskHits)});
    table.addRow({"profile-cache disk misses",
                  std::to_string(profiles.diskMisses)});
    table.addRow({"profile-cache disk writes",
                  std::to_string(profiles.diskWrites)});
    table.addRow({"profile-cache disk corrupt",
                  std::to_string(profiles.diskCorrupt)});
    addCacheRows(table, "plan-cache", planCacheStats());
    return table.render();
}

} // namespace mmgen::runtime
