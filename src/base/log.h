// Minimal leveled logging.
//
// The simulator is often run inside benchmarks where logging must be cheap when
// disabled: the macros below evaluate their stream arguments only when the level is
// enabled. Output goes to stderr with the virtual-time tag supplied by the caller
// where relevant.
#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <functional>
#include <sstream>
#include <string>

namespace potemkin {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kNone = 4,
};

// Global log threshold; messages below it are discarded. Setting it is a test
// seam, reached by no program.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Internal sink used by the macros.
void LogMessage(LogLevel level, const char* file, int line, const std::string& message);

// Structured-log hook: when installed, every emitted WARN/ERROR message (and
// every fatal check, with fatal=true) is reported to the hook *after* printing
// to stderr, in emission order — this is how free-form logs join the event
// ledger's ordered forensic timeline (see EventLedger::InstallLogHook). `file`
// is the log site's static __FILE__ literal; the hook may retain the pointer.
using LogHook =
    std::function<void(LogLevel level, const char* file, int line, bool fatal)>;
// Replaces the current hook; an empty hook uninstalls.
void SetLogHook(LogHook hook);

class LogStream {
 public:
  LogStream(LogLevel level, const char* file, int line)
      : level_(level), file_(file), line_(line) {}
  ~LogStream() { LogMessage(level_, file_, line_, stream_.str()); }

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace potemkin

#define PK_LOG_ENABLED(level) ((level) >= ::potemkin::GetLogLevel())

#define PK_LOG(level)                      \
  if (!PK_LOG_ENABLED(level)) {            \
  } else                                   \
    ::potemkin::LogStream(level, __FILE__, __LINE__)

#define PK_DEBUG PK_LOG(::potemkin::LogLevel::kDebug)
#define PK_INFO PK_LOG(::potemkin::LogLevel::kInfo)
#define PK_WARN PK_LOG(::potemkin::LogLevel::kWarning)
#define PK_ERROR PK_LOG(::potemkin::LogLevel::kError)

// Fatal invariant check: always on, aborts with a message. Used for simulator
// invariants whose violation means the run's results are meaningless.
#define PK_CHECK(cond)                                                        \
  if (cond) {                                                                 \
  } else                                                                      \
    ::potemkin::FatalStream(__FILE__, __LINE__, #cond)

namespace potemkin {

class FatalStream {
 public:
  FatalStream(const char* file, int line, const char* condition);
  ~FatalStream();  // Aborts the process after emitting the message.

  template <typename T>
  FatalStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  const char* file_;
  int line_;
  const char* condition_;
  std::ostringstream stream_;
};

}  // namespace potemkin

#endif  // SRC_BASE_LOG_H_
