/**
 * @file
 * Human-readable text form of a trace: one instruction per line,
 * diffable and greppable — handy for debugging generators and the
 * AsmDB rewriter, and as an interchange format for external tools.
 *
 * Line format (whitespace separated):
 *   <pc-hex> <class> [t=<target-hex>] [m=<addr-hex>] [taken]
 *           [d=<reg>] [s=<reg>[,<reg>]]
 *
 * `t=` belongs to branches and software prefetches and `m=` to loads
 * and stores (addrKindOf); the reader rejects either on another class.
 */
#ifndef SIPRE_TRACE_TRACE_TEXT_HPP
#define SIPRE_TRACE_TRACE_TEXT_HPP

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace sipre
{

/** Write the trace in text form. */
void writeTraceText(const Trace &trace, std::ostream &os);

/**
 * Parse a text-form trace. Returns false (with a message in *error*)
 * on the first malformed line. The result replaces `trace`'s contents.
 */
bool readTraceText(std::istream &is, Trace &trace,
                   std::string *error = nullptr);

} // namespace sipre

#endif // SIPRE_TRACE_TRACE_TEXT_HPP
