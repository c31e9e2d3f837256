#include "common/failpoint.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>

namespace pairwisehist {
namespace failpoint {

namespace {

enum class Action { kOff, kError, kCrash, kPartial, kDelay };

struct PointState {
  Action action = Action::kOff;
  uint32_t delay_ms = 0;
  uint64_t trigger_hit = 0;  // 0 = every hit; n = only the n-th
  uint64_t hits = 0;         // evaluations while armed
};

struct Registry {
  std::mutex mu;
  std::unordered_map<std::string, PointState> points;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

/// Armed-point count; the Fire fast path is a single relaxed load of this.
std::atomic<uint64_t> g_active{0};

// The canonical point list. Central (rather than registered at first
// execution) so harnesses can enumerate points that a given run never
// reaches.
const std::vector<std::string>& Points() {
  static const std::vector<std::string>* kPoints = new std::vector<std::string>{
      "serve.append.build",     // before the successor snapshot is built
      "wal.append.write",       // WAL record framing write (partial-capable)
      "wal.append.sync",        // before the WAL fsync for a record
      "wal.append.acked",       // record durable, acknowledgement not sent
      "checkpoint.save",        // before the checkpoint tmp file is written
      "checkpoint.rename",      // tmp checkpoint durable, not yet renamed
      "checkpoint.truncate_wal",// checkpoint live, WAL not yet truncated
      "recovery.replay",        // before applying each replayed WAL record
      "http.send",              // socket write in the HTTP layer
      "service.handle",         // request admitted, handler about to run
      "scrub.verify",           // per-block CRC verify (scrub, VerifyAll)
      "pws3.block_corrupt",     // flips a data byte after Encode's CRCs
      "recover.checkpoint_open",// before opening each checkpoint candidate
      "compact.build",          // before building the merged segment
      "compact.publish",        // merged segment built, swap not published
      "compact.checkpoint",     // compacted snapshot live, not yet durable
  };
  return *kPoints;
}

Status ParseAction(const std::string& spec, PointState* out) {
  std::string action = spec;
  const size_t at = spec.find('@');
  if (at != std::string::npos) {
    action = spec.substr(0, at);
    char* end = nullptr;
    const unsigned long long n = std::strtoull(spec.c_str() + at + 1, &end, 10);
    if (end == spec.c_str() + at + 1 || *end != '\0' || n == 0) {
      return Status::InvalidArgument("failpoint: bad hit count in '" + spec +
                                     "'");
    }
    out->trigger_hit = n;
  }
  if (action == "off") {
    out->action = Action::kOff;
  } else if (action == "error") {
    out->action = Action::kError;
  } else if (action == "crash") {
    out->action = Action::kCrash;
  } else if (action == "partial") {
    out->action = Action::kPartial;
  } else if (action.rfind("delay:", 0) == 0) {
    char* end = nullptr;
    const unsigned long ms = std::strtoul(action.c_str() + 6, &end, 10);
    if (end == action.c_str() + 6 || *end != '\0') {
      return Status::InvalidArgument("failpoint: bad delay in '" + spec + "'");
    }
    out->action = Action::kDelay;
    out->delay_ms = static_cast<uint32_t>(ms);
  } else {
    return Status::InvalidArgument("failpoint: unknown action '" + spec +
                                   "' (off|error|crash|partial|delay:<ms>)");
  }
  return Status::OK();
}

void ArmFromEnv() {
  const char* env = std::getenv("PWH_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  std::string spec(env);
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find_first_of(",;", start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) continue;
    Status st = Set(entry.substr(0, eq), entry.substr(eq + 1));
    if (!st.ok()) {
      std::fprintf(stderr, "PWH_FAILPOINTS: %s\n", st.ToString().c_str());
    }
  }
}

std::once_flag g_env_once;

}  // namespace

void CrashNow() { _Exit(kCrashExitCode); }

Injection Fire(const char* point) {
  std::call_once(g_env_once, ArmFromEnv);
  Injection out;
  if (g_active.load(std::memory_order_relaxed) == 0) return out;

  Action action = Action::kOff;
  uint32_t delay_ms = 0;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    auto it = r.points.find(point);
    if (it == r.points.end() || it->second.action == Action::kOff) return out;
    PointState& ps = it->second;
    ++ps.hits;
    if (ps.trigger_hit != 0 && ps.hits != ps.trigger_hit) return out;
    action = ps.action;
    delay_ms = ps.delay_ms;
  }
  switch (action) {
    case Action::kOff:
      break;
    case Action::kError:
      out.status = Status::Internal(std::string("injected fault at ") + point);
      break;
    case Action::kCrash:
      CrashNow();
    case Action::kPartial:
      out.partial = true;
      break;
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      break;
  }
  return out;
}

Status Set(const std::string& point, const std::string& action) {
  bool known = false;
  for (const std::string& p : Points()) {
    if (p == point) {
      known = true;
      break;
    }
  }
  if (!known) {
    return Status::InvalidArgument("failpoint: unknown point '" + point + "'");
  }
  PointState next;
  PH_RETURN_IF_ERROR(ParseAction(action, &next));

  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  PointState& ps = r.points[point];
  const bool was_armed = ps.action != Action::kOff;
  const bool now_armed = next.action != Action::kOff;
  next.hits = 0;
  ps = next;
  if (was_armed != now_armed) {
    g_active.fetch_add(now_armed ? 1 : uint64_t(-1),
                       std::memory_order_relaxed);
  }
  return Status::OK();
}

void ClearAll() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  uint64_t armed = 0;
  for (auto& kv : r.points) {
    if (kv.second.action != Action::kOff) ++armed;
  }
  r.points.clear();
  g_active.fetch_sub(armed, std::memory_order_relaxed);
}

uint64_t HitCount(const std::string& point) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.points.find(point);
  return it == r.points.end() ? 0 : it->second.hits;
}

const std::vector<std::string>& KnownPoints() { return Points(); }

}  // namespace failpoint
}  // namespace pairwisehist
