#include "util/logging.hpp"

#include <sstream>

namespace sipre
{

void
assertFailed(const char *file, int line, std::string_view msg,
             const char *cond)
{
    std::ostringstream oss;
    oss << file << ":" << line << ": " << msg << " [" << cond << "]";
    panic(oss.str());
}

} // namespace sipre
