#include "common.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>

#include "common/simd.h"
#include "datagen/datasets.h"
#include "harness/workload.h"
#include "query/exact.h"
#include "query/sql_parser.h"
#include "serve/json.h"

namespace perfbench {

using pairwisehist::AggFunc;
using pairwisehist::AggResult;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Run configuration

unsigned RunConfig::PeakThreads() const {
  return clients + server_threads + (exec_threads > 0 ? exec_threads - 1 : 0) +
         (build_threads > 0 ? build_threads - 1 : 0);
}

Status RunConfig::Guard() const {
  const unsigned nproc = static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN));
  if (exec_threads == 0 || build_threads == 0) {
    return Status::InvalidArgument(
        "perfbench: exec_threads/build_threads must be explicit (0 means "
        "one per core, which differs between machines)");
  }
  if (PeakThreads() > nproc) {
    return Status::InvalidArgument(
        "perfbench: configuration needs " + std::to_string(PeakThreads()) +
        " threads but nproc is " + std::to_string(nproc) + ": " + Describe());
  }
  return Status::OK();
}

std::string RunConfig::Describe() const {
  // Every restart opens its synopsis memory-mapped (MeasureRestart,
  // ServingDb::Recover).
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "workload=%s seed=%llu rows=%zu clients=%u server_threads=%u "
                "exec_threads=%u build_threads=%u peak_threads=%u "
                "kernel_tier=%s fsync=%s open_mode=mmap cpus=%s",
                workload.c_str(), static_cast<unsigned long long>(seed), rows,
                clients, server_threads, exec_threads, build_threads,
                PeakThreads(),
                pairwisehist::GetKernels(pairwisehist::KernelMode::kAuto).name,
                fsync.c_str(), cpus.c_str());
  return buf;
}

StatusOr<std::vector<int>> PinnableCpus(size_t n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return Status::Internal("perfbench: sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && cpus.size() < n; --cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  if (cpus.size() < n) {
    return Status::InvalidArgument("perfbench: needs " + std::to_string(n) +
                                   " CPUs to pin to, has " +
                                   std::to_string(cpus.size()));
  }
  return cpus;
}

Status PinThisThread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    return Status::Internal("perfbench: sched_setaffinity failed");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Statement pools

namespace {

const AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum,    AggFunc::kAvg,
                          AggFunc::kMin,   AggFunc::kMax,    AggFunc::kMedian,
                          AggFunc::kVar};

uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t x = seed * 0x9E3779B97F4A7C15ull + a * 0xBF58476D1CE4E5B9ull +
               b * 0x94D049BB133111EBull + 1;
  x ^= x >> 31;
  return x;
}

// Rows the generator checks selectivity against: a uniform sample, so
// drawing a pool costs the same at any table size.
constexpr size_t kGeneratorSampleRows = 20000;
// Extra candidates drawn per stratum (or page) to replace statements the
// screen rejects.
constexpr size_t kSpareDraws = 4;
// Predicates per dashboard page: one shape for every page, so the page
// tail reflects serving rather than which clauses a seed happened to draw.
constexpr int kPagePredicates = 3;

StatusOr<std::vector<Query>> Generate(const Table& sample, uint64_t seed,
                                      int predicates, AggFunc func, size_t n,
                                      double min_selectivity) {
  pairwisehist::WorkloadConfig c = pairwisehist::ScaledWorkloadConfig(seed);
  c.num_queries = n;
  c.min_predicates = c.max_predicates = predicates;
  c.functions = {func};
  c.min_selectivity = min_selectivity;
  return pairwisehist::GenerateWorkload(sample, c);
}

StatusOr<Statement> ToStatement(const Query& q) {
  Statement st;
  st.sql = q.ToSql();
  // Re-parse so the pool holds exactly what the program parses from text.
  auto parsed = pairwisehist::ParseSql(st.sql);
  if (!parsed.ok()) return parsed.status();
  st.query = std::move(parsed).value();
  return st;
}

}  // namespace

StatusOr<Table> MakeTable(size_t rows) {
  constexpr uint64_t kTableSeed = 1;
  return pairwisehist::MakeDataset("power", rows, kTableSeed);
}

StatusOr<std::vector<Table>> MakeBatches(size_t count, size_t rows) {
  constexpr uint64_t kBatchSeed = 1000;
  std::vector<Table> batches;
  for (size_t i = 0; i < count; ++i) {
    auto b = pairwisehist::MakeDataset("power", rows, kBatchSeed + i);
    if (!b.ok()) return b.status();
    batches.push_back(std::move(b).value());
  }
  return batches;
}

StatusOr<std::vector<Statement>> MakeStatementPool(const Table& table,
                                                   uint64_t seed,
                                                   size_t per_stratum,
                                                   double min_selectivity,
                                                   const Screen& screen,
                                                   size_t* redrawn) {
  Table sample = table.Sample(kGeneratorSampleRows, seed);
  sample.set_name(table.name());
  std::vector<Statement> pool;
  for (int k = 1; k <= 5; ++k) {
    for (size_t f = 0; f < std::size(kFuncs); ++f) {
      auto qs = Generate(sample, Mix(seed, k, f), k, kFuncs[f],
                         per_stratum + kSpareDraws, min_selectivity);
      if (!qs.ok()) return qs.status();
      size_t taken = 0;
      for (const Query& q : qs.value()) {
        if (taken == per_stratum) break;
        auto st = ToStatement(q);
        if (!st.ok()) return st.status();
        if (screen && !screen(st.value())) {
          ++*redrawn;
          continue;
        }
        pool.push_back(std::move(st).value());
        ++taken;
      }
      if (taken != per_stratum) {
        return Status::Internal("perfbench: drew " + std::to_string(taken) +
                                " of " + std::to_string(per_stratum) +
                                " statements for a stratum");
      }
    }
  }
  return pool;
}

StatusOr<std::vector<std::vector<Statement>>> MakePages(
    const Table& table, uint64_t seed, size_t num_pages, size_t page_size,
    double min_selectivity, const Screen& screen, size_t* redrawn) {
  Table sample = table.Sample(kGeneratorSampleRows, seed);
  sample.set_name(table.name());
  std::vector<std::vector<Statement>> pages;
  for (size_t p = 0; p < num_pages; ++p) {
    const int k = kPagePredicates;
    auto bases = Generate(sample, Mix(seed, 100 + p, k), k, AggFunc::kAvg,
                          1 + kSpareDraws, min_selectivity);
    if (!bases.ok()) return bases.status();
    for (const Query& where : bases.value()) {
      // The page's tiles: COUNT(*) of the view, then every aggregate of
      // the base column.
      std::vector<Query> tiles;
      Query count_star = where;
      count_star.func = AggFunc::kCount;
      count_star.count_star = true;
      count_star.agg_column.clear();
      tiles.push_back(count_star);
      for (size_t i = 0; tiles.size() < page_size; ++i) {
        Query q = where;
        q.func = kFuncs[i % std::size(kFuncs)];
        tiles.push_back(q);
      }
      std::vector<Statement> page;
      bool ok = true;
      for (const Query& q : tiles) {
        auto st = ToStatement(q);
        if (!st.ok()) return st.status();
        ok = ok && (!screen || screen(st.value()));
        page.push_back(std::move(st).value());
      }
      if (ok) {
        pages.push_back(std::move(page));
        break;
      }
      ++*redrawn;
    }
    if (pages.size() != p + 1) {
      return Status::Internal("perfbench: could not draw dashboard page " +
                              std::to_string(p));
    }
  }
  return pages;
}

std::string FirstQuerySql(const Table& table) {
  return "SELECT COUNT(*) FROM " + table.name() + ";";
}

Screen ContractScreen(const Db& db) {
  return [&db](const Statement& st) {
    auto r = db.ExecuteSql(st.sql);
    return r.ok() && CheckAnswer(st, r.value()).empty();
  };
}

void GateContract(const std::string& what, size_t checked, size_t broken,
                  Report* report) {
  const size_t tolerated = 2 + checked / 1000;
  report->Note("contract   " + what + ": " + std::to_string(broken) + " of " +
               std::to_string(checked) +
               " statements broke the answer contract (" +
               std::to_string(tolerated) + " tolerated)");
  report->attempted += checked;
  for (size_t i = tolerated; i < broken; ++i) {
    report->Fail(what +
                 ": more statements broke the answer contract than tolerated");
  }
}

// ---------------------------------------------------------------------------
// Exact answers and accuracy

namespace {

int CountConditions(const pairwisehist::PredicateNode& node) {
  if (node.type == pairwisehist::PredicateNode::Type::kCondition) return 1;
  int n = 0;
  for (const auto& child : node.children) n += CountConditions(child);
  return n;
}

/// Mean over strata of each stratum's median, leaving out the kTrim
/// highest and kTrim lowest stratum medians. One or two strata (MIN, MAX
/// and VAR over several predicates) have medians that jump several-fold
/// between seeds; with every stratum in the mean the median error moved
/// by 40 % between seeds, with the 3 + 3 extremes left out by 15-18 %.
double MeanOfMedians(const std::map<std::pair<int, int>,
                                    std::vector<double>>& by_stratum) {
  constexpr size_t kTrim = 3;
  std::vector<double> medians;
  for (const auto& [stratum, values] : by_stratum) {
    medians.push_back(Median(values));
  }
  std::sort(medians.begin(), medians.end());
  if (medians.size() <= 2 * kTrim) {
    return medians.empty() ? 0.0 : Median(medians);
  }
  double sum = 0;
  for (size_t i = kTrim; i + kTrim < medians.size(); ++i) sum += medians[i];
  return sum / static_cast<double>(medians.size() - 2 * kTrim);
}

}  // namespace

StatusOr<Accuracy> AccuracyOn(const Db& db, const Table& table,
                              const std::vector<Statement>& pool) {
  // |Same aggregate over the whole table| per (function, column).
  std::map<std::pair<int, std::string>, double> scale;
  // Errors and widths per (aggregate, predicate count) stratum: each
  // stratum's median, averaged over strata (MeanOfMedians). A plain
  // median over the pool sat in a gap between near-exact and coarse
  // strata and moved by 35 % between seeds.
  std::map<std::pair<int, int>, std::vector<double>> errs, widths;
  Accuracy acc;
  size_t correct = 0;
  for (const Statement& st : pool) {
    auto exact = pairwisehist::ExecuteExact(table, st.query);
    if (!exact.ok()) return exact.status();
    const auto key = std::make_pair(static_cast<int>(st.query.func),
                                    st.query.agg_column);
    auto it = scale.find(key);
    if (it == scale.end()) {
      Query whole = st.query;
      whole.where.reset();
      auto w = pairwisehist::ExecuteExact(table, whole);
      if (!w.ok()) return w.status();
      it = scale.emplace(key, std::fabs(w->Scalar().estimate)).first;
    }
    const double sanity = std::max(1e-3 * it->second, 1e-9);
    auto approx = db.ExecuteSql(st.sql);
    const double e = exact->Scalar().estimate;
    if (!approx.ok() || !CheckAnswer(st, approx.value()).empty() ||
        !std::isfinite(e)) {
      ++acc.broken;
      continue;
    }
    const AggResult& a = approx->Scalar();
    const std::pair<int, int> stratum(
        static_cast<int>(st.query.func),
        st.query.where ? CountConditions(*st.query.where) : 0);
    errs[stratum].push_back(RelErrPct(e, a.estimate, sanity));
    widths[stratum].push_back(WidthPct(e, a.lower, a.upper, sanity));
    correct += BoundsHold(e, a.lower, a.upper);
    ++acc.n;
  }
  if (acc.n == 0) return acc;
  acc.rel_err_p50_pct = MeanOfMedians(errs);
  acc.ci_width_p50_pct = MeanOfMedians(widths);
  acc.bounds_correct_pct =
      100.0 * static_cast<double>(correct) / static_cast<double>(acc.n);
  return acc;
}

std::string CheckAnswer(const Statement& st, const QueryResult& r) {
  if (r.groups.size() != 1) return "expected one group: " + st.sql;
  const AggResult& a = r.Scalar();
  if (!std::isfinite(a.estimate) || !std::isfinite(a.lower) ||
      !std::isfinite(a.upper)) {
    return "non-finite estimate or bound: " + st.sql;
  }
  if (!(a.lower <= a.estimate && a.estimate <= a.upper)) {
    return "estimate outside its bounds: " + st.sql;
  }
  if (st.query.func == AggFunc::kCount && a.lower < 0) {
    return "negative COUNT: " + st.sql;
  }
  return "";
}

bool BitEqual(const QueryResult& a, const QueryResult& b) {
  if (a.groups.size() != b.groups.size()) return false;
  auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0 ||
           (std::isnan(x) && std::isnan(y));
  };
  for (size_t i = 0; i < a.groups.size(); ++i) {
    const auto& x = a.groups[i];
    const auto& y = b.groups[i];
    if (x.label != y.label || x.agg.empty_selection != y.agg.empty_selection ||
        !same(x.agg.estimate, y.agg.estimate) ||
        !same(x.agg.lower, y.agg.lower) || !same(x.agg.upper, y.agg.upper)) {
      return false;
    }
  }
  return true;
}

void Report::Phase(const char* name) {
  const double now = NowS();
  std::fprintf(stderr, "perfbench: %-10s %8.3f s\n", name, now - phase_start);
  phase_start = now;
}

void Report::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

StatusOr<double> MedianOf(size_t reps,
                          const std::function<StatusOr<double>()>& once) {
  std::vector<double> v;
  for (size_t i = 0; i < reps; ++i) {
    auto s = once();
    if (!s.ok()) return s.status();
    v.push_back(s.value());
  }
  return Median(v);
}

void EmitEndToEnd(const EndToEnd& e, Report* report) {
  std::vector<double> append_ms, lag_ms;
  for (const auto& s : e.appends) {
    append_ms.push_back(s.Latency() * 1e3);
    lag_ms.push_back(s.Lag() * 1e3);
  }
  // The reported tail is p90. On a shared virtual machine p99 mostly
  // measures the hypervisor descheduling a vCPU for milliseconds, which
  // varies from run to run far beyond any bound; p99 is printed beside
  // it for reference.
  //
  // Read figures come from the quietest tenth of 48 windows (0.375 s each
  // at 30 s). The reference machine runs at one of two speeds: for
  // stretches of one to several seconds, about a quarter of the time and
  // now and then for minutes, something outside the process slows the
  // same code 1.5x (dashboard pages 50 -> 75-80 us; a calibration loop of
  // dependent integer arithmetic beside it did not slow, so most likely
  // shared caches, not clock speed). Medians over windows flipped whole
  // runs between the two speeds; the quieter quarter still let the p90s
  // of runs caught in a long slow stretch spread by 0.19 of their median.
  constexpr size_t kWindows = 48;
  constexpr double kQuiet = 0.1;
  constexpr double kTail = 0.90;
  const WindowedSummary q = SummarizeWindows(
      e.query_us, e.read_begin, e.read_end, kWindows, kQuiet, kTail);
  const WindowedSummary p = SummarizeWindows(
      e.page_us, e.read_begin, e.read_end, kWindows, kQuiet, kTail);
  const LatencySummary a = Summarize(append_ms, kTail),
                       lag = Summarize(lag_ms, kTail);
  const WindowedSummary q99 = SummarizeWindows(
      e.query_us, e.read_begin, e.read_end, kWindows, kQuiet);
  const LatencySummary a99 = Summarize(append_ms);
  auto fmt = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", v);
    return std::string(buf);
  };
  report->Note("latency    query " + q.Describe("us") + "; p" +
               fmt(q99.tail_q * 100) + "=" + fmt(q99.tail) + "us");
  report->Note("latency    page " + p.Describe("us"));
  report->Note("latency    append (from due time) " + a.Describe("ms") +
               "; p" + fmt(a99.tail_q * 100) + "=" + fmt(a99.tail) +
               "ms; generator lag " + lag.Describe("ms"));
  report->Note("accuracy   over " + std::to_string(e.accuracy.n) +
               " statements");
  report->E2e("setup_s", e.setup_s, "s");
  report->E2e("stmt_qps", q.rate, "1/s");
  report->E2e("query_p50_us", q.p50, "us");
  report->E2e("query_p90_us", q.tail, "us");
  report->E2e("page_p50_us", p.p50, "us");
  report->E2e("page_p90_us", p.tail, "us");
  // The append tail is printed above but is not a metric: over ten seeds
  // its spread (0.26-0.62 of the median, from fsync and vCPU stalls)
  // exceeded every bound a metric may have.
  report->E2e("append_p50_ms", a.p50, "ms");
  report->E2e("recover_s", e.recover_s, "s");
  report->E2e("rel_err_p50_pct", e.accuracy.rel_err_p50_pct, "%");
  report->E2e("bounds_correct_pct", e.accuracy.bounds_correct_pct, "%");
  report->E2e("ci_width_p50_pct", e.accuracy.ci_width_p50_pct, "%");
  report->E2e("synopsis_bytes_per_row", e.bytes_per_row, "B/row");
  report->E2e("peak_rss_mb", PeakRssMb(), "MB");
}

double OverheadPct(const double time[2], const uint64_t ops[2]) {
  if (ops[0] == 0 || ops[1] == 0 || time[0] <= 0) return 0.0;
  return 100.0 * ((time[1] / static_cast<double>(ops[1])) /
                      (time[0] / static_cast<double>(ops[0])) -
                  1.0);
}

int TracedSlot(bool trace, double now, double phase_start) {
  constexpr double kSlotS = 0.25;
  return trace && static_cast<int64_t>((now - phase_start) / kSlotS) % 2 == 1
             ? 1
             : 0;
}

StatusOr<double> MeasureRestart(const Db& live, const std::string& path,
                                const std::vector<Statement>& pool,
                                size_t reps, unsigned exec_threads,
                                Report* report) {
  {
    Span s("api.Db::Save");
    PH_RETURN_IF_ERROR(live.Save(path));
  }
  pairwisehist::DbOptions o;
  o.open_mode = pairwisehist::OpenMode::kMmap;
  o.scrub = false;  // verified synchronously below, as recovery does
  o.exec_threads = exec_threads;
  std::optional<Db> reopened;
  auto seconds = MedianOf(reps, [&]() -> StatusOr<double> {
    reopened.reset();
    Span span("restart");
    const double t0 = NowS();
    StatusOr<Db> opened = [&] {
      Span s("api.Db::Open");
      return Db::Open(path, o);
    }();
    if (!opened.ok()) return opened.status();
    {
      Span s("core.VerifyIntegrity");
      PH_RETURN_IF_ERROR(opened->VerifyIntegrity());
    }
    {
      Span s("api.Db::ExecuteSql");
      PH_RETURN_IF_ERROR(opened->ExecuteSql(pool.front().sql).status());
    }
    const double dt = NowS() - t0;
    reopened = std::move(opened).value();
    return dt;
  });
  if (!seconds.ok()) return seconds.status();
  for (const Statement& st : pool) {
    ++report->attempted;
    auto a = live.ExecuteSql(st.sql);
    auto b = reopened->ExecuteSql(st.sql);
    if (!a.ok() || !b.ok() || !BitEqual(a.value(), b.value())) {
      report->Fail("reopened synopsis answers differently: " + st.sql);
    }
  }
  return seconds;
}

std::vector<OpenLoopSample> RunOpenLoop(
    size_t n, double interval, const std::function<std::string(size_t)>& op,
    Report* report, const std::function<void(size_t)>& after) {
  std::vector<OpenLoopSample> out;
  out.reserve(n);
  const double t0 = NowS();
  for (size_t i = 0; i < n; ++i) {
    OpenLoopSample s;
    s.due = DueTime(t0, interval, i);
    double now = NowS();
    if (now < s.due) {
      std::this_thread::sleep_for(std::chrono::duration<double>(s.due - now));
      while ((now = NowS()) < s.due) {
      }
    }
    s.start = now;
    const std::string bad = op(i);
    s.end = NowS();
    out.push_back(s);
    ++report->attempted;
    if (!bad.empty()) report->Fail(bad);
    if (after) after(i);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pipelined HTTP client

PipelinedClient::~PipelinedClient() { Close(); }

void PipelinedClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

Status PipelinedClient::Connect(uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("perfbench: socket() failed");
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return Status::Internal("perfbench: connect to 127.0.0.1:" +
                            std::to_string(port) + " failed");
  }
  return Status::OK();
}

Status PipelinedClient::Page(const std::string& path,
                             const std::vector<std::string>& bodies,
                             std::vector<Response>* out) {
  std::string wire;
  for (const std::string& body : bodies) {
    wire += "POST " + path +
            " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: "
            "application/json\r\nContent-Length: " +
            std::to_string(body.size()) + "\r\n\r\n";
    wire += body;
  }
  size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return Status::Internal("perfbench: send failed");
    sent += static_cast<size_t>(n);
  }
  out->resize(bodies.size());
  for (Response& r : *out) PH_RETURN_IF_ERROR(ReadResponse(&r));
  return Status::OK();
}

Status PipelinedClient::ReadResponse(Response* out) {
  char chunk[16384];
  auto fill = [&]() -> Status {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) return Status::Internal("perfbench: connection closed");
    buf_.append(chunk, static_cast<size_t>(n));
    return Status::OK();
  };
  size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    PH_RETURN_IF_ERROR(fill());
  }
  const std::string head = buf_.substr(0, head_end);
  if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) {
    return Status::Internal("perfbench: malformed response");
  }
  out->status = std::atoi(head.c_str() + 9);
  size_t length = 0;
  for (size_t pos = head.find("\r\n"); pos != std::string::npos;
       pos = head.find("\r\n", pos + 2)) {
    static const char kLen[] = "content-length:";
    bool match = head.size() >= pos + 2 + sizeof(kLen) - 1;
    for (size_t i = 0; match && i + 1 < sizeof(kLen); ++i) {
      match = std::tolower(static_cast<unsigned char>(head[pos + 2 + i])) ==
              kLen[i];
    }
    if (match) {
      length = std::strtoull(head.c_str() + pos + 2 + sizeof(kLen) - 1,
                             nullptr, 10);
    }
  }
  const size_t total = head_end + 4 + length;
  while (buf_.size() < total) PH_RETURN_IF_ERROR(fill());
  out->body = buf_.substr(head_end + 4, length);
  buf_.erase(0, total);
  out->done_s = NowS();
  return Status::OK();
}

std::string QueryBody(const std::string& sql) {
  std::string body = "{\"sql\":";
  pairwisehist::AppendJsonString(&body, sql);
  body += "}";
  return body;
}

bool ParseQueryResponse(const std::string& body, uint64_t* epoch,
                        QueryResult* out) {
  auto doc = pairwisehist::ParseJson(body);
  if (!doc.ok()) return false;
  const auto* e = doc->Find("epoch");
  const auto* result = doc->Find("result");
  const auto* groups = result != nullptr ? result->Find("groups") : nullptr;
  if (e == nullptr || groups == nullptr) return false;
  *epoch = static_cast<uint64_t>(e->number);
  out->groups.clear();
  auto num = [](const pairwisehist::JsonValue* v) {
    return v == nullptr || v->type != pairwisehist::JsonValue::Type::kNumber
               ? std::nan("")
               : v->number;
  };
  for (const auto& g : groups->items) {
    QueryResult::Group grp;
    if (const auto* l = g.Find("label")) grp.label = l->str;
    grp.agg.estimate = num(g.Find("estimate"));
    grp.agg.lower = num(g.Find("lower"));
    grp.agg.upper = num(g.Find("upper"));
    const auto* empty = g.Find("empty");
    grp.agg.empty_selection = empty != nullptr && empty->boolean;
    out->groups.push_back(std::move(grp));
  }
  return true;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

}  // namespace perfbench
