/**
 * @file
 * The causal-trace token: a request identifier small enough to ride
 * inside every hand-off record of the data path (host Command, TcpEvent,
 * Packet) without changing behaviour.
 *
 * Cost when no tracer is attached: the token adds 4 bytes to each of
 * those records and stays 0; a TokenSet stays an empty vector that never
 * allocates, because only CausalTracer::beginRequest() mints a valid
 * token.
 *
 * This header must stay dependency-light: it is included from
 * tcp/tcb.hh, host/command_queue.hh and net/packet.hh, which sit below
 * sim/simulation.hh in the include graph.
 */

#ifndef F4T_SIM_TRACE_TOKEN_HH
#define F4T_SIM_TRACE_TOKEN_HH

#include <cstdint>
#include <vector>

namespace f4t::sim::ctrace
{

/** Handle to one traced request; id 0 means "not traced". */
struct Token
{
    std::uint32_t id = 0;

    bool valid() const { return id != 0; }
};

/**
 * A batch of tokens parked on a hardware structure (an FPC slot, an
 * issued FPU job, a migrating TCB). Events for one flow coalesce and
 * accumulate, so several requests can be "inside" one structure at
 * once.
 */
struct TokenSet
{
    std::vector<Token> toks;

    void
    add(Token t)
    {
        if (t.valid())
            toks.push_back(t);
    }

    void
    merge(TokenSet &&other)
    {
        for (Token t : other.toks)
            toks.push_back(t);
        other.toks.clear();
    }

    void clear() { toks.clear(); }
};

} // namespace f4t::sim::ctrace

#endif // F4T_SIM_TRACE_TOKEN_HH
