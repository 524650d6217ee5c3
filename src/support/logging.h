#ifndef OVERLAP_SUPPORT_LOGGING_H_
#define OVERLAP_SUPPORT_LOGGING_H_

#include <sstream>
#include <string>

namespace overlap {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/** Sets the global minimum level; messages below it are dropped. */
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

/** Stream-style log sink; emits on destruction. */
class LogMessage {
  public:
    LogMessage(LogLevel level, const char* file, int line);
    ~LogMessage();

    template <typename T>
    LogMessage& operator<<(const T& value)
    {
        stream_ << value;
        return *this;
    }

  private:
    LogLevel level_;
    std::ostringstream stream_;
};

/**
 * Turns a streamed LogMessage into void, so both arms of the logging
 * macros' conditional have one type. `&` binds looser than `<<`, so the
 * whole chain streams first.
 */
struct LogVoidify {
    void operator&(const LogMessage&) {}
};

}  // namespace internal

/**
 * Streams a message at `level` (kDebug ... kError). Below GetLogLevel()
 * the statement builds nothing: no stream is made and the streamed
 * operands are not evaluated.
 */
#define OVERLAP_LOG(level)                                                \
    (::overlap::LogLevel::level < ::overlap::GetLogLevel())               \
        ? static_cast<void>(0)                                            \
        : ::overlap::internal::LogVoidify() &                             \
              ::overlap::internal::LogMessage(::overlap::LogLevel::level, \
                                              __FILE__, __LINE__)

#define OVERLAP_VLOG() OVERLAP_LOG(kDebug)

}  // namespace overlap

#endif  // OVERLAP_SUPPORT_LOGGING_H_
