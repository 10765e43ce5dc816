#include "disk_cache.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define MMGEN_HAVE_FLOCK 1
#endif

#include "runtime/profile_serde.hh"

namespace mmgen::runtime {

namespace {

constexpr std::uint32_t kMagic = 0x4d4d5043; // "MMPC"

/** Envelope header preceding the serialized payload. */
struct EntryHeader
{
    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    std::uint64_t key = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t checksum = 0;
};

std::uint64_t
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
hexKey(std::uint64_t key)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(key));
    return std::string(buf);
}

/**
 * Advisory per-key lock: `flock` on a sidecar `.lock` file, blocking
 * until acquired. On platforms without flock (or when the lock file
 * cannot be opened) acquisition silently no-ops — the rename-based
 * writes stay safe, only duplicate computation is possible.
 */
class ScopedFileLock
{
  public:
    explicit ScopedFileLock(const std::string& path)
    {
#ifdef MMGEN_HAVE_FLOCK
        fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
        if (fd >= 0 && ::flock(fd, LOCK_EX) != 0) {
            ::close(fd);
            fd = -1;
        }
#else
        (void)path;
#endif
    }

    ~ScopedFileLock()
    {
#ifdef MMGEN_HAVE_FLOCK
        if (fd >= 0) {
            ::flock(fd, LOCK_UN);
            ::close(fd);
        }
#endif
    }

    ScopedFileLock(const ScopedFileLock&) = delete;
    ScopedFileLock& operator=(const ScopedFileLock&) = delete;

  private:
#ifdef MMGEN_HAVE_FLOCK
    int fd = -1;
#endif
};

bool
readFile(const std::string& path, std::string& out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = std::move(ss).str();
    return in.good() || in.eof();
}

} // namespace

std::string
DiskProfileCache::resolveDefaultDir()
{
    if (const char* dir = std::getenv("MMGEN_CACHE_DIR");
        dir != nullptr && *dir != '\0')
        return std::string(dir);
    if (const char* xdg = std::getenv("XDG_CACHE_HOME");
        xdg != nullptr && *xdg != '\0')
        return std::string(xdg) + "/mmgen";
    if (const char* home = std::getenv("HOME");
        home != nullptr && *home != '\0')
        return std::string(home) + "/.cache/mmgen";
    return std::string();
}

DiskProfileCache::DiskProfileCache(std::string dir)
    : dir_(dir.empty() ? resolveDefaultDir() : std::move(dir))
{
    if (dir_.empty())
        return;
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    enabled_ = !ec && std::filesystem::is_directory(dir_, ec) && !ec;
    if (!enabled_)
        dir_.clear();
}

std::string
DiskProfileCache::pathFor(std::uint64_t key) const
{
    return dir_ + "/profile-" + hexKey(key) + ".bin";
}

DiskProfileCache::LoadOutcome
DiskProfileCache::tryLoad(std::uint64_t key,
                          profiler::ProfileResult& out) const
{
    const std::string path = pathFor(key);
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return LoadOutcome::Miss;

    std::string bytes;
    if (!readFile(path, bytes))
        return LoadOutcome::Corrupt;
    if (bytes.size() < sizeof(EntryHeader))
        return LoadOutcome::Corrupt;

    EntryHeader hdr;
    std::memcpy(&hdr, bytes.data(), sizeof hdr);
    if (hdr.magic != kMagic)
        return LoadOutcome::Corrupt;
    // A valid entry in an older layout is not damage, just stale:
    // treat it as absent and let the writer replace it.
    if (hdr.version != kFormatVersion)
        return LoadOutcome::Miss;
    if (hdr.key != key)
        return LoadOutcome::Corrupt;
    if (hdr.payloadBytes != bytes.size() - sizeof hdr)
        return LoadOutcome::Corrupt;

    const std::string_view payload(bytes.data() + sizeof hdr,
                                   static_cast<std::size_t>(
                                       hdr.payloadBytes));
    if (fnv1a64(payload) != hdr.checksum)
        return LoadOutcome::Corrupt;
    if (!deserializeProfileResult(payload, out))
        return LoadOutcome::Corrupt;
    return LoadOutcome::Hit;
}

bool
DiskProfileCache::load(std::uint64_t key, profiler::ProfileResult& out)
{
    if (!enabled_) {
        const std::lock_guard<std::mutex> lock(mu);
        ++counters.misses;
        return false;
    }
    const LoadOutcome outcome = tryLoad(key, out);
    const std::lock_guard<std::mutex> lock(mu);
    switch (outcome) {
    case LoadOutcome::Hit:
        ++counters.hits;
        return true;
    case LoadOutcome::Corrupt:
        ++counters.corrupt;
        [[fallthrough]];
    case LoadOutcome::Miss:
        ++counters.misses;
        return false;
    }
    return false;
}

bool
DiskProfileCache::store(std::uint64_t key,
                        const profiler::ProfileResult& result)
{
    if (!enabled_)
        return false;

    const std::string payload = serializeProfileResult(result);
    EntryHeader hdr;
    hdr.magic = kMagic;
    hdr.version = kFormatVersion;
    hdr.key = key;
    hdr.payloadBytes = payload.size();
    hdr.checksum = fnv1a64(payload);

    // Write to a process-unique temp name, then rename into place:
    // rename within one directory is atomic, so concurrent readers
    // only ever see no file or a complete file.
    const std::string path = pathFor(key);
    std::string tmp = path + ".tmp";
#ifdef MMGEN_HAVE_FLOCK
    tmp += ".";
    tmp += std::to_string(static_cast<long long>(::getpid()));
#endif
    {
        std::ofstream out(tmp,
                          std::ios::binary | std::ios::trunc);
        if (!out)
            return false;
        out.write(reinterpret_cast<const char*>(&hdr), sizeof hdr);
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        if (!out.good()) {
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return false;
    }
    const std::lock_guard<std::mutex> lock(mu);
    ++counters.writes;
    return true;
}

profiler::ProfileResult
DiskProfileCache::getOrCompute(std::uint64_t key,
                               const Compute& compute)
{
    if (!enabled_)
        return compute();

    profiler::ProfileResult result;
    if (load(key, result))
        return result;

    const ScopedFileLock lock(pathFor(key) + ".lock");
    // Re-check under the lock: if another process computed this key
    // while we waited, its entry is complete (rename is atomic) and
    // loading it is both correct and a genuine disk hit.
    {
        const LoadOutcome outcome = tryLoad(key, result);
        if (outcome == LoadOutcome::Hit) {
            const std::lock_guard<std::mutex> statsLock(mu);
            ++counters.hits;
            return result;
        }
    }
    result = compute();
    store(key, result);
    return result;
}

DiskCacheStats
DiskProfileCache::stats() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace mmgen::runtime
