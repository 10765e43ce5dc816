#include "logging.hh"

#include <iostream>
#include <sstream>

namespace mmgen {
namespace detail {

void
raiseFatal(const std::string& msg)
{
    throw FatalError(msg);
}

void
raisePanic(const char* file, int line, const std::string& msg)
{
    std::ostringstream oss;
    oss << file << ":" << line << ": " << msg;
    throw PanicError(oss.str());
}

} // namespace detail

void
inform(const std::string& msg)
{
    std::cerr << "info: " << msg << "\n";
}

void
warn(const std::string& msg)
{
    std::cerr << "warn: " << msg << "\n";
}

} // namespace mmgen
