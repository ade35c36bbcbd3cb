/**
 * @file
 * The lossless text form of one SimResult: a single line of
 * whitespace-separated fields, doubles at max_digits10. The campaign
 * cache, the engine's result-cache file, the job store, the cluster's
 * peer replies and `sipre_cli --result-out` all persist results in it.
 */
#ifndef SIPRE_CORE_RESULT_TEXT_HPP
#define SIPRE_CORE_RESULT_TEXT_HPP

#include <iosfwd>

#include "core/sim_result.hpp"

namespace sipre
{

/** Serialize one SimResult (lossless, single line, max_digits10). */
void writeSimResultText(std::ostream &os, const SimResult &result);

/** Inverse of writeSimResultText. Returns false on a garbled stream. */
bool readSimResultText(std::istream &is, SimResult &result);

} // namespace sipre

#endif // SIPRE_CORE_RESULT_TEXT_HPP
