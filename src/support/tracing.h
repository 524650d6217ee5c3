#ifndef OVERLAP_SUPPORT_TRACING_H_
#define OVERLAP_SUPPORT_TRACING_H_

#include <cstdint>
#include <string>

namespace overlap {

/**
 * Per-pass record the compiler writes into its CompileReport: wall time
 * plus the entry computation's instruction-count delta. Offsets are
 * relative to the start of Compile() so the pass lane of the unified
 * trace (DESIGN.md §13) nests naturally.
 */
struct PassTiming {
    std::string pass_name;
    double start_seconds = 0.0;
    double end_seconds = 0.0;
    int64_t instructions_before = 0;
    int64_t instructions_after = 0;

    double seconds() const { return end_seconds - start_seconds; }
    int64_t instruction_delta() const
    {
        return instructions_after - instructions_before;
    }
};

/**
 * Seconds since an arbitrary process-local epoch (steady clock); the
 * time base of every PassTiming.
 */
double NowSeconds();

}  // namespace overlap

#endif  // OVERLAP_SUPPORT_TRACING_H_
