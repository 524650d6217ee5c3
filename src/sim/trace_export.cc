#include "sim/trace_export.h"

#include "support/strings.h"

namespace overlap {
namespace {

/** Accumulates trace events; keeps the comma bookkeeping in one place. */
class EventWriter {
  public:
    void Append(std::string event)
    {
        if (!first_) out_ += ",\n";
        first_ = false;
        out_ += std::move(event);
    }

    /** Chrome "M" metadata event naming a process or thread lane. */
    void NameProcess(int pid, const std::string& name)
    {
        Append(StrCat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":",
                      pid, ",\"tid\":0,\"args\":{\"name\":\"",
                      JsonEscape(name), "\"}}"));
    }

    void NameThread(int pid, int64_t tid, const std::string& name)
    {
        Append(StrCat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":",
                      pid, ",\"tid\":", tid, ",\"args\":{\"name\":\"",
                      JsonEscape(name), "\"}}"));
    }

    /** Complete (ph=X) event; times in seconds, args pre-rendered. */
    void Complete(int pid, int64_t tid, const std::string& name,
                  const std::string& category, double start_seconds,
                  double end_seconds, const std::string& args_json = "")
    {
        std::string event = StrCat(
            "{\"name\":\"", JsonEscape(name), "\",\"cat\":\"", category,
            "\",\"ph\":\"X\",\"pid\":", pid, ",\"tid\":", tid,
            ",\"ts\":", start_seconds * 1e6,
            ",\"dur\":", (end_seconds - start_seconds) * 1e6);
        if (!args_json.empty()) {
            event += StrCat(",\"args\":", args_json);
        }
        event += "}";
        Append(std::move(event));
    }

    const std::string& str() const { return out_; }

  private:
    std::string out_;
    bool first_ = true;
};

/** Simulator lane (tid within the simulator process) of an event. */
int64_t
SimLaneOf(TraceKind kind)
{
    switch (kind) {
      case TraceKind::kCompute: return 0;
      case TraceKind::kCollective: return 1;
      case TraceKind::kTransferWait: return 2;
      case TraceKind::kTransferInFlight: return 3;
    }
    return 2;
}

void
WriteSimEvents(EventWriter* writer, int pid, const SimResult& sim)
{
    for (const TraceEvent& ev : sim.trace) {
        std::string args;
        if (ev.loop_group >= 0) {
            args = StrCat("{\"loop_group\":", ev.loop_group, "}");
        }
        writer->Complete(pid, SimLaneOf(ev.kind), ev.label,
                         TraceKindName(ev.kind), ev.start_seconds,
                         ev.end_seconds, args);
    }
}

}  // namespace

std::string
TraceToChromeJson(const SimResult& result, const std::string& device_name)
{
    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    for (const TraceEvent& ev : result.trace) {
        int64_t tid = SimLaneOf(ev.kind);
        if (!first) out += ",\n";
        first = false;
        out += StrCat("{\"name\":\"", JsonEscape(ev.label),
                      "\",\"cat\":\"", TraceKindName(ev.kind),
                      "\",\"ph\":\"X\",\"pid\":0,\"tid\":", tid,
                      ",\"ts\":", ev.start_seconds * 1e6,
                      ",\"dur\":",
                      (ev.end_seconds - ev.start_seconds) * 1e6, "}");
    }
    out += StrCat(
        "\n],\"displayTimeUnit\":\"ms\",\"metadata\":{\"device\":\"",
        JsonEscape(device_name), "\"}}\n");
    return out;
}

std::string
UnifiedTraceToChromeJson(const UnifiedTrace& trace)
{
    constexpr int kCompilerPid = 0;
    constexpr int kSimulatorPid = 1;

    EventWriter writer;
    if (!trace.passes.empty()) {
        writer.NameProcess(kCompilerPid, "compiler");
        writer.NameThread(kCompilerPid, 0, "passes");
        for (const PassTiming& pass : trace.passes) {
            writer.Complete(
                kCompilerPid, 0, pass.pass_name, "pass",
                pass.start_seconds, pass.end_seconds,
                StrCat("{\"instructions_before\":",
                       pass.instructions_before,
                       ",\"instructions_after\":",
                       pass.instructions_after,
                       ",\"instruction_delta\":",
                       pass.instruction_delta(), "}"));
        }
    }
    if (trace.sim != nullptr) {
        writer.NameProcess(
            kSimulatorPid,
            StrCat("simulator:", JsonEscape(trace.device_name)));
        writer.NameThread(kSimulatorPid, 0, "compute");
        writer.NameThread(kSimulatorPid, 1, "collective");
        writer.NameThread(kSimulatorPid, 2, "wait");
        writer.NameThread(kSimulatorPid, 3, "transfer");
        WriteSimEvents(&writer, kSimulatorPid, *trace.sim);
    }
    return StrCat("{\"traceEvents\":[\n", writer.str(),
                  "\n],\"displayTimeUnit\":\"ms\"}\n");
}

}  // namespace overlap
