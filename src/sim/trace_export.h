#ifndef OVERLAP_SIM_TRACE_EXPORT_H_
#define OVERLAP_SIM_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "sim/engine.h"
#include "support/tracing.h"

namespace overlap {

/**
 * Serializes a simulation trace to the Chrome trace-event JSON format
 * (load in chrome://tracing or https://ui.perfetto.dev). Compute,
 * blocking-collective and transfer-wait events land on three separate
 * rows of one device track so the overlap structure is visible at a
 * glance.
 */
std::string TraceToChromeJson(const SimResult& result,
                              const std::string& device_name = "device0");

/**
 * The unified cross-layer trace (DESIGN.md §13): one Chrome-trace
 * document spanning the compiler and the pod simulator. Each subsystem
 * renders as its own process:
 *
 *   pid 0 "compiler"        — one X event per pipeline pass, with the
 *                             entry computation's instruction delta in
 *                             the event args;
 *   pid 1 "simulator"       — the modeled device's lanes: tid 0
 *                             compute, tid 1 blocking collectives,
 *                             tid 2 transfer-wait stalls, tid 3 async
 *                             transfers in flight (Start..arrival).
 *                             Events carry the decomposition site's
 *                             loop group in their args when they belong
 *                             to an emitted loop.
 *
 * Both sections are optional — pass an empty vector / nullptr for the
 * layers that did not run.
 */
struct UnifiedTrace {
    /// Compiler lane (CompileReport::pass_timings).
    std::vector<PassTiming> passes;
    /// Simulator lanes (a traced PodSimulator::Run result).
    const SimResult* sim = nullptr;
    std::string device_name = "device0";
};

std::string UnifiedTraceToChromeJson(const UnifiedTrace& trace);

}  // namespace overlap

#endif  // OVERLAP_SIM_TRACE_EXPORT_H_
