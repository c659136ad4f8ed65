// labflow_perfbench: replays the seeded LabFlow-1 event stream, one
// transaction per event, through the program's public session API, checks
// every answer against the reference model, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as one JSON line.
//
//   labflow_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--workdir DIR]
//   labflow_perfbench --self-test [--workdir DIR]
//
// It exits with 1 after the result line if an answer differed from the
// model's or an event failed.
//
// See README.md in this directory for the workloads and the metrics.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status_macros.h"
#include "labbase/labbase.h"
#include "labflow/apply.h"
#include "labflow/server_version.h"
#include "lsm/lsm_manager.h"
#include "model.h"
#include "net/client.h"
#include "net/server.h"
#include "ostore/ostore_manager.h"
#include "storage/page.h"
#include "texas/texas_manager.h"
#include "trace.h"
#include "workflow/graph.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace labbase = labflow::labbase;
namespace storage = labflow::storage;
using labflow::Oid;
using labflow::Result;
using labflow::Status;
using labflow::Value;
using labflow::bench::Event;
using labflow::bench::ServerVersion;

// ---- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  ServerVersion version;
  double intvl;       ///< scale: clones = 40 * intvl
  size_t pool_pages;  ///< buffer pool (LSM: block cache of the same bytes)
  /// Through an in-process labflowd engine, with every thread of the
  /// process on one CPU: the client, event loop and workers hand each call
  /// to one another, and on a virtual machine a wakeup across CPUs costs an
  /// inter-processor interrupt whose price varies from run to run (probe
  /// rounds split 3.4 s / 6.3 s on the same input), while handoffs on one
  /// CPU cost a context switch each and repeat within a few percent.
  bool remote;
};

constexpr int kBaseClones = 40;
constexpr int kServerWorkers = 2;

constexpr Workload kWorkloads[] = {
    {"stream-ostore", ServerVersion::kOstore, 30, 512, false},
    {"stream-texastc", ServerVersion::kTexasTC, 30, 512, false},
    {"stream-lsm", ServerVersion::kLsm, 30, 512, false},
    {"remote-ostore", ServerVersion::kOstore, 3, 2048, true},
};

/// Set-up-only iterations at the start of a run and after each round, so
/// setup_s is a median of many samples spread over the run: one set-up takes
/// about a millisecond, and single samples vary severalfold with the file
/// system's background work.
constexpr int kSetupSamples = 20;
/// Reopens per round, so reopen_s is a median of several.
constexpr int kReopensPerRound = 2;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Pins the calling thread, and the threads it starts from now on, to the
/// CPU it runs on. With `saved`, first stores the thread's affinity there.
bool PinToCurrentCpu(cpu_set_t* saved) {
  if (saved != nullptr && sched_getaffinity(0, sizeof(*saved), saved) != 0) {
    return false;
  }
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int cpu = sched_getcpu();
  CPU_SET(cpu < 0 ? 0 : cpu, &cpus);
  return sched_setaffinity(0, sizeof(cpus), &cpus) == 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile of `v` (reorders it).
double Percentile(std::vector<float>& v, double p) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

// ---- Checks ------------------------------------------------------------------

/// Collects answer mismatches and property violations; keeps the first few
/// messages for the report.
struct Checker {
  int64_t mismatches = 0;
  std::vector<std::string> messages;

  void Fail(std::string msg) {
    ++mismatches;
    if (messages.size() < 5) messages.push_back(std::move(msg));
  }
  void Expect(const std::string& what, const std::string& got,
              const std::string& want) {
    if (got != want) Fail(what + ": got '" + got + "', model '" + want + "'");
  }
};

// ---- Executing one event -----------------------------------------------------

bool Ascending(const std::vector<labbase::HistoryEntry>& hist) {
  for (size_t i = 1; i < hist.size(); ++i) {
    if (hist[i].time < hist[i - 1].time) return false;
  }
  return true;
}

std::vector<int64_t> Times(const std::vector<labbase::HistoryEntry>& hist) {
  std::vector<int64_t> t;
  t.reserve(hist.size());
  for (const labbase::HistoryEntry& e : hist) t.push_back(e.time.micros);
  return t;
}

Result<std::string> WorkQueueAnswer(labbase::SessionIface* s,
                                    labbase::StateId state) {
  LABFLOW_ASSIGN_OR_RETURN(std::vector<Oid> queue, s->MaterialsInState(state));
  std::vector<std::string> head;
  for (size_t i = 0; i < queue.size() && i < kWorkQueueHead; ++i) {
    LABFLOW_ASSIGN_OR_RETURN(labbase::MaterialInfo info,
                             s->GetMaterial(queue[i]));
    head.push_back(std::move(info.name));
  }
  return AnswerWorkQueue(static_cast<int64_t>(queue.size()), head);
}

/// Executes one event's operations (the caller brackets the transaction).
/// For a query, `answer` receives the program's answer in canonical form.
Status Execute(labbase::SessionIface* s, const Event& ev, std::string* answer,
               Checker* check) {
  if (ev.IsUpdate()) return labflow::bench::ApplyUpdate(s, ev);
  const labbase::Schema& schema = s->schema();
  switch (ev.type) {
    case Event::Type::kQueryMostRecent: {
      LABFLOW_ASSIGN_OR_RETURN(Oid m, s->FindMaterialByName(ev.name));
      Result<Value> v = s->MostRecent(m, ev.attr);
      if (!v.ok() && !v.status().IsNotFound()) return v.status();
      *answer = AnswerMostRecent(v.ok() ? &v.value() : nullptr);
      return Status::OK();
    }
    case Event::Type::kQueryHistory: {
      LABFLOW_ASSIGN_OR_RETURN(Oid m, s->FindMaterialByName(ev.name));
      LABFLOW_ASSIGN_OR_RETURN(labbase::AttrId attr,
                               schema.AttributeByName(ev.attr));
      LABFLOW_ASSIGN_OR_RETURN(std::vector<labbase::HistoryEntry> hist,
                               s->History(m, attr));
      if (!Ascending(hist)) check->Fail("history not ascending: " + ev.name);
      *answer = AnswerHistory(Times(hist));
      return Status::OK();
    }
    case Event::Type::kQueryWorkQueue: {
      Result<labbase::StateId> state = schema.StateByName(ev.state);
      if (!state.ok()) {
        *answer = AnswerMissing("state");
        return Status::OK();
      }
      LABFLOW_ASSIGN_OR_RETURN(*answer, WorkQueueAnswer(s, state.value()));
      return Status::OK();
    }
    case Event::Type::kQueryCountState: {
      Result<labbase::StateId> state = schema.StateByName(ev.state);
      if (!state.ok()) {
        *answer = AnswerMissing("state");
        return Status::OK();
      }
      LABFLOW_ASSIGN_OR_RETURN(int64_t n, s->CountInState(state.value()));
      *answer = AnswerCount(n);
      return Status::OK();
    }
    case Event::Type::kQuerySetMembers: {
      Result<Oid> set = s->FindSetByName(ev.name);
      if (!set.ok()) {
        if (!set.status().IsNotFound()) return set.status();
        *answer = AnswerMissing("set");
        return Status::OK();
      }
      LABFLOW_ASSIGN_OR_RETURN(std::vector<Oid> members,
                               s->SetMembers(set.value()));
      *answer = AnswerSetSize(static_cast<int64_t>(members.size()));
      return Status::OK();
    }
    case Event::Type::kQueryMaterialByName: {
      LABFLOW_ASSIGN_OR_RETURN(Oid m, s->FindMaterialByName(ev.name));
      LABFLOW_ASSIGN_OR_RETURN(labbase::MaterialInfo info, s->GetMaterial(m));
      *answer = AnswerMaterial(info.attrs_present.size(), info.name);
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("unknown event type");
  }
}

/// Compares the database's final state with the model's, and asserts the
/// LabFlow-1 properties: every work queue's length equals CountInState; the
/// counts over all states sum to the materials created; on a seeded sample
/// of materials, each history ascends by valid time, its timestamps equal
/// the model's, and its last value equals MostRecent; a sample of sets has
/// the model's sizes.
Status CheckState(labbase::SessionIface* s, const Stream& stream,
                  uint64_t sample_seed, size_t materials, size_t sets,
                  Checker* check) {
  const ReferenceModel& model = stream.model;
  const labbase::Schema& schema = s->schema();
  int64_t total = 0;
  for (const auto& [name, queue] : model.queues()) {
    LABFLOW_ASSIGN_OR_RETURN(labbase::StateId state, schema.StateByName(name));
    LABFLOW_ASSIGN_OR_RETURN(std::string got, WorkQueueAnswer(s, state));
    std::vector<std::string> head;
    for (const std::string& m : queue) {
      if (head.size() == kWorkQueueHead) break;
      head.push_back(m);
    }
    check->Expect("work queue " + name, got,
                  AnswerWorkQueue(static_cast<int64_t>(queue.size()), head));
    LABFLOW_ASSIGN_OR_RETURN(int64_t count, s->CountInState(state));
    LABFLOW_ASSIGN_OR_RETURN(std::vector<Oid> all, s->MaterialsInState(state));
    if (count != static_cast<int64_t>(all.size())) {
      check->Fail("CountInState(" + name + ") != work-queue length");
    }
    total += count;
  }
  if (total != static_cast<int64_t>(model.material_names().size())) {
    check->Fail("state counts sum to " + std::to_string(total) + ", not " +
                std::to_string(model.material_names().size()));
  }

  labflow::Rng rng(sample_seed);
  const std::vector<std::string>& names = model.material_names();
  for (size_t i = 0; i < materials && !names.empty(); ++i) {
    const std::string& name = names[rng.NextBelow(names.size())];
    const ReferenceModel::Material& want = *model.FindMaterial(name);
    LABFLOW_ASSIGN_OR_RETURN(Oid m, s->FindMaterialByName(name));
    LABFLOW_ASSIGN_OR_RETURN(labbase::MaterialInfo info, s->GetMaterial(m));
    size_t present = 0;
    for (const auto& [attr, a] : want.attrs) present += !a.history.empty();
    check->Expect("material " + name,
                  AnswerMaterial(info.attrs_present.size(), info.name),
                  AnswerMaterial(present, name));
    for (const auto& [attr_name, a] : want.attrs) {
      LABFLOW_ASSIGN_OR_RETURN(labbase::AttrId attr,
                               schema.AttributeByName(attr_name));
      LABFLOW_ASSIGN_OR_RETURN(std::vector<labbase::HistoryEntry> hist,
                               s->History(m, attr));
      Result<Value> mr = s->MostRecent(m, attr);
      if (!mr.ok() && !mr.status().IsNotFound()) return mr.status();
      const std::string what = name + "." + attr_name;
      if (!Ascending(hist)) check->Fail("history not ascending: " + what);
      std::vector<int64_t> want_times;
      for (const auto& e : a.history) want_times.push_back(e.first);
      check->Expect("history " + what, AnswerHistory(Times(hist)),
                    AnswerHistory(want_times));
      check->Expect("most recent " + what,
                    AnswerMostRecent(mr.ok() ? &mr.value() : nullptr),
                    AnswerMostRecent(&a.most_recent));
      if (!hist.empty() && mr.ok() && !(hist.back().value == mr.value())) {
        check->Fail("last history value of " + what + " is " +
                    hist.back().value.ToString() + ", MostRecent is " +
                    mr.value().ToString());
      }
    }
  }
  std::vector<const std::pair<const std::string, int64_t>*> all_sets;
  for (const auto& entry : model.sets()) all_sets.push_back(&entry);
  for (size_t i = 0; i < sets && !all_sets.empty(); ++i) {
    const auto& [name, size] = *all_sets[rng.NextBelow(all_sets.size())];
    LABFLOW_ASSIGN_OR_RETURN(Oid set, s->FindSetByName(name));
    LABFLOW_ASSIGN_OR_RETURN(std::vector<Oid> members, s->SetMembers(set));
    check->Expect("set " + name,
                  AnswerSetSize(static_cast<int64_t>(members.size())),
                  AnswerSetSize(size));
  }
  return Status::OK();
}

// ---- A running database ------------------------------------------------------

/// Answers one CountInState call wrongly (off by one): the self-test shows
/// that the answer check catches it.
class PerturbingSession : public TracingSession {
 public:
  PerturbingSession(labbase::SessionIface* inner, int64_t wrong_call)
      : TracingSession(inner, false), wrong_call_(wrong_call) {}

  Result<int64_t> CountInState(labbase::StateId state) override {
    Result<int64_t> n = TracingSession::CountInState(state);
    if (n.ok() && ++count_calls_ == wrong_call_) return n.value() + 1;
    return n;
  }

 private:
  int64_t wrong_call_;
  int64_t count_calls_ = 0;
};

struct DeployOptions {
  bool fresh = true;
  TimedEnv* env = nullptr;      ///< non-null: traced (wrappers on every seam)
  int64_t perturb_call = 0;     ///< non-zero: a PerturbingSession
};

/// Timings of the steps of Deployment::Open.
struct OpenTimes {
  double store_s = 0;
  double labbase_s = 0;
  double total_s = 0;
};

/// One open database: storage manager, LabBase and the client session —
/// in process, or through an in-process server on a loopback connection.
class Deployment {
 public:
  static Result<std::unique_ptr<Deployment>> Open(const Workload& w,
                                                  const std::string& path,
                                                  const DeployOptions& opts,
                                                  OpenTimes* times);

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    Status st = Close(false);
    (void)st;  // a deployment torn down on an error path
  }

  labbase::SessionIface* session() { return session_; }
  storage::StorageManager* manager() { return mgr_.get(); }
  const CallCounts* calls() const {
    return wrapper_ ? &wrapper_->calls() : nullptr;
  }

  /// Tears everything down; with `checkpoint`, first makes the database
  /// durable through the session (the program's final checkpoint).
  Status Close(bool checkpoint);

  /// StorageStats just before the manager closed.
  const storage::StorageStats& final_stats() const { return final_stats_; }

 private:
  std::unique_ptr<storage::StorageManager> mgr_;
  std::unique_ptr<labbase::LabBase> db_;
  std::unique_ptr<labbase::LabBase::Session> local_;
  std::unique_ptr<labflow::net::Server> server_;
  std::unique_ptr<labflow::net::Connection> conn_;
  std::unique_ptr<labflow::net::RemoteSession> remote_;
  std::unique_ptr<TracingSession> wrapper_;
  labbase::SessionIface* session_ = nullptr;
  storage::StorageStats final_stats_;
};

/// Opens the manager for `w` with the options CreateServer would pass, plus
/// `env`. CreateServer takes no Env, so the traced run opens each manager
/// through its own public Open.
Result<std::unique_ptr<storage::StorageManager>> OpenManager(
    const Workload& w, const std::string& path, bool fresh, TimedEnv* env) {
  labflow::bench::ServerOptions server;
  server.path = path;
  server.pool_pages = w.pool_pages;
  server.truncate = fresh;
  if (env == nullptr) return labflow::bench::CreateServer(w.version, server);

  std::unique_ptr<storage::StorageManager> inner;
  switch (w.version) {
    case ServerVersion::kOstore: {
      labflow::ostore::OstoreOptions o;
      o.base.path = path;
      o.base.buffer_pool_pages = w.pool_pages;
      o.base.truncate = fresh;
      o.base.env = env;
      LABFLOW_ASSIGN_OR_RETURN(inner, labflow::ostore::OstoreManager::Open(o));
      break;
    }
    case ServerVersion::kTexas:
    case ServerVersion::kTexasTC: {
      labflow::texas::TexasOptions o;
      o.base.path = path;
      o.base.buffer_pool_pages = w.pool_pages;
      o.base.truncate = fresh;
      o.base.env = env;
      o.client_clustering = w.version == ServerVersion::kTexasTC;
      LABFLOW_ASSIGN_OR_RETURN(inner, labflow::texas::TexasManager::Open(o));
      break;
    }
    case ServerVersion::kLsm: {
      labflow::lsm::LsmOptions o;
      o.path = path;
      o.truncate = fresh;
      o.env = env;
      o.block_cache_bytes = w.pool_pages * storage::kPageSize;
      LABFLOW_ASSIGN_OR_RETURN(inner, labflow::lsm::LsmManager::Open(o));
      break;
    }
    default:
      return Status::InvalidArgument("no traced open for this version");
  }
  return std::unique_ptr<storage::StorageManager>(
      std::make_unique<TracingManager>(std::move(inner)));
}

Result<std::unique_ptr<Deployment>> Deployment::Open(const Workload& w,
                                                     const std::string& path,
                                                     const DeployOptions& opts,
                                                     OpenTimes* times) {
  auto d = std::make_unique<Deployment>();
  const double t0 = Now();
  LABFLOW_ASSIGN_OR_RETURN(d->mgr_,
                           OpenManager(w, path, opts.fresh, opts.env));
  const double t1 = Now();
  LABFLOW_ASSIGN_OR_RETURN(d->db_, labbase::LabBase::Open(
                                       d->mgr_.get(), labbase::LabBaseOptions{}));
  const double t2 = Now();
  labbase::SessionIface* inner = nullptr;
  if (w.remote) {
    labflow::net::ServerConfig config;
    config.worker_threads = kServerWorkers;
    d->server_ = std::make_unique<labflow::net::Server>(d->db_.get(),
                                                        d->mgr_.get(), config);
    LABFLOW_RETURN_IF_ERROR(d->server_->Start());
    LABFLOW_ASSIGN_OR_RETURN(
        d->conn_, labflow::net::Connection::Dial("127.0.0.1",
                                                 d->server_->port()));
    LABFLOW_ASSIGN_OR_RETURN(d->remote_,
                             labflow::net::RemoteSession::Open(d->conn_.get()));
    inner = d->remote_.get();
  } else {
    d->local_ = d->db_->OpenSession();
    inner = d->local_.get();
  }
  if (opts.perturb_call != 0) {
    d->wrapper_ = std::make_unique<PerturbingSession>(inner, opts.perturb_call);
  } else if (opts.env != nullptr) {
    d->wrapper_ = std::make_unique<TracingSession>(inner, w.remote);
  }
  d->session_ = d->wrapper_ ? d->wrapper_.get() : inner;
  if (times != nullptr) {
    times->store_s = t1 - t0;
    times->labbase_s = t2 - t1;
    times->total_s = Now() - t0;
  }
  return d;
}

Status Deployment::Close(bool checkpoint) {
  if (mgr_ == nullptr) return Status::OK();
  Status result;
  Tracer& tracer = Tracer::Get();
  if (checkpoint && session_ != nullptr) {
    tracer.SetParent(kParentCheckpoint);
    result = session_->Checkpoint();
  }
  tracer.SetParent(kParentClose);
  wrapper_.reset();
  remote_.reset();  // closes the server-side session
  conn_.reset();
  if (server_ != nullptr) server_->Shutdown();
  server_.reset();
  local_.reset();
  session_ = nullptr;
  db_.reset();
  final_stats_ = mgr_->stats();
  Status closed = mgr_->Close();
  mgr_.reset();
  return result.ok() ? closed : result;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// ---- One round ---------------------------------------------------------------

/// Named figures with their units, as the result line prints them.
struct Metrics {
  struct Entry {
    double value = 0;
    const char* unit = "";
  };
  std::map<std::string, Entry> entries;

  void Set(const std::string& name, double value, const char* unit) {
    entries[name] = Entry{value, unit};
  }
  double Get(const std::string& name) const { return entries.at(name).value; }
};

struct RoundResult {
  double replay_s = 0;
  double cpu_s = 0;
  std::vector<float> update_us;
  std::vector<float> query_us;
  uint64_t db_bytes = 0;
  std::vector<double> reopen_s;
  std::vector<OpenTimes> reopen_times;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  Checker check;
  CallCounts calls;
  storage::StorageStats replay_stats;
  storage::StorageStats final_stats;
};

struct RunContext {
  const Workload* workload = nullptr;
  const Stream* stream = nullptr;
  std::string dir;        ///< holds one database directory per round
  std::string setup_dir;  ///< a second directory for set-up-only samples
  uint64_t seed = 0;
};

Status ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

/// Set-up alone: open an empty store, LabBase, (server, dial, session) and
/// install the schema. Returns the seconds it took.
Result<double> SetupOnce(const RunContext& ctx, const std::string& dir,
                         const DeployOptions& opts,
                         std::unique_ptr<Deployment>* out) {
  LABFLOW_RETURN_IF_ERROR(ResetDir(dir));
  const double t0 = Now();
  LABFLOW_ASSIGN_OR_RETURN(
      std::unique_ptr<Deployment> d,
      Deployment::Open(*ctx.workload, dir + "/labflow.db", opts, nullptr));
  labflow::workflow::WorkflowGraph graph =
      labflow::workflow::GenomeMappingWorkflow();
  LABFLOW_RETURN_IF_ERROR(graph.InstallSchema(d->session()));
  const double dt = Now() - t0;
  if (out != nullptr) {
    *out = std::move(d);
  } else {
    LABFLOW_RETURN_IF_ERROR(d->Close(false));
  }
  return dt;
}

Status RunRound(const RunContext& ctx, TimedEnv* env, int64_t perturb_call,
                int round, RoundResult* r) {
  const Stream& stream = *ctx.stream;
  DeployOptions opts;
  opts.env = env;
  opts.perturb_call = perturb_call;
  Tracer& tracer = Tracer::Get();

  // Each round gets a fresh directory, and the run deletes them all when it
  // ends: deleting a round's files while the next round replays would put
  // the file system's release of the blocks inside the timed replay.
  const std::string dir = ctx.dir + "/round-" + std::to_string(round);
  const std::string path = dir + "/labflow.db";
  std::unique_ptr<Deployment> d;
  LABFLOW_RETURN_IF_ERROR(SetupOnce(ctx, dir, opts, &d).status());

  // ---- timed replay ----
  labbase::SessionIface* s = d->session();
  const size_t n = stream.events.size();
  r->update_us.reserve(static_cast<size_t>(stream.composition.updates));
  r->query_us.reserve(static_cast<size_t>(stream.composition.queries));
  std::string answer;
  if (env != nullptr) tracer.Start(ctx.workload->remote);
  const double cpu0 = CpuSeconds();
  const double t0 = Now();
  for (size_t i = 0; i < n; ++i) {
    const Event& ev = stream.events[i];
    tracer.SetParent(static_cast<uint32_t>(i));
    ScopedSpan span(kEventLayer, static_cast<uint8_t>(ev.type));
    const double e0 = Now();
    Status st = s->Begin();
    if (st.ok()) {
      st = Execute(s, ev, &answer, &r->check);
      if (st.ok()) {
        st = s->Commit();
      } else {
        Status aborted = s->Abort();
        (void)aborted;  // the event's own error is the one reported
      }
    }
    const float us = static_cast<float>((Now() - e0) * 1e6);
    (ev.IsUpdate() ? r->update_us : r->query_us).push_back(us);
    ++r->attempted;
    if (!st.ok()) {
      ++r->failed;
      if (r->errors.size() < 5) {
        r->errors.push_back("event " + std::to_string(i) + " (" +
                            EventTypeName(ev.type) + "): " + st.ToString());
      }
    } else if (!ev.IsUpdate() && answer != stream.expected[i]) {
      r->check.Fail("event " + std::to_string(i) + " (" +
                    EventTypeName(ev.type) + " " + ev.name + ev.state +
                    "): got '" + answer + "', model '" + stream.expected[i] +
                    "'");
    }
  }
  r->replay_s = Now() - t0;
  r->cpu_s = CpuSeconds() - cpu0;
  r->replay_stats = d->manager()->stats();
  tracer.SetParent(kParentSetup);

  // ---- untimed: state and property checks, close, size, reopen ----
  // Untraced: the check's calls are not part of any layer's figures.
  if (d->calls() != nullptr) r->calls = *d->calls();
  const bool traced = tracer.active();
  if (traced) tracer.Stop();
  LABFLOW_RETURN_IF_ERROR(CheckState(s, stream, ctx.seed * 31 + round, 200,
                                     100, &r->check));
  if (traced) tracer.Resume();
  LABFLOW_RETURN_IF_ERROR(d->Close(/*checkpoint=*/true));
  r->final_stats = d->final_stats();
  d.reset();
  r->db_bytes = DirectoryBytes(dir);

  DeployOptions reopen = opts;
  reopen.fresh = false;
  reopen.perturb_call = 0;
  for (int k = 0; k < kReopensPerRound; ++k) {
    tracer.SetParent(kParentReopen);
    OpenTimes times;
    LABFLOW_ASSIGN_OR_RETURN(
        std::unique_ptr<Deployment> again,
        Deployment::Open(*ctx.workload, path, reopen, &times));
    r->reopen_s.push_back(times.total_s);
    r->reopen_times.push_back(times);
    if (k == 0) {
      if (traced) tracer.Stop();
      LABFLOW_RETURN_IF_ERROR(CheckState(again->session(), stream,
                                         ctx.seed * 31 + round + 7919, 100,
                                         50, &r->check));
      if (traced) tracer.Resume();
    }
    LABFLOW_RETURN_IF_ERROR(again->Close(false));
  }
  if (traced) tracer.Stop();
  return Status::OK();
}

// ---- Per-layer metrics from spans --------------------------------------------

Metrics Analyze(const std::vector<Span>& spans, const RoundResult& r,
                const Stream& stream, const EnvCounters& env) {
  struct Agg {
    double count = 0, s = 0, self = 0, event_count = 0, event_self = 0,
           background = 0;
  };
  Agg agg[kLayers][32];
  for (const Span& sp : spans) {
    Agg& a = agg[sp.layer][sp.op];
    const double dur = sp.dur_ns * 1e-9;
    const double self = (sp.dur_ns - std::min(sp.child_ns, sp.dur_ns)) * 1e-9;
    a.count += 1;
    a.s += dur;
    a.self += self;
    if (IsEventParent(sp.parent)) {
      a.event_count += 1;
      a.event_self += self;
    }
    if (sp.parent == kParentBackground) a.background += dur;
  }
  auto layer_sum = [&](int layer, double Agg::*field) {
    double t = 0;
    for (const Agg& a : agg[layer]) t += a.*field;
    return t;
  };
  const double events = static_cast<double>(stream.events.size());
  const storage::StorageStats& st = r.replay_stats;
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  Metrics m;
  for (int t = 0; t < kEventTypes; ++t) {
    const std::string name = std::string("event.") +
                             EventTypeName(static_cast<Event::Type>(t));
    m.Set(name + ".count", agg[kEventLayer][t].count, "count");
    m.Set(name + ".s", agg[kEventLayer][t].s, "s");
  }
  m.Set("event.loop_self_s", layer_sum(kEventLayer, &Agg::self), "s");
  for (int op = 0; op < kSReportedOps; ++op) {
    const std::string name = std::string("session.") + kSessionOpNames[op];
    m.Set(name + ".calls", agg[kSessionLayer][op].count, "count");
    m.Set(name + ".s", agg[kSessionLayer][op].s, "s");
  }
  m.Set("session.self_s", layer_sum(kSessionLayer, &Agg::self), "s");
  m.Set("session.calls_per_event",
        layer_sum(kSessionLayer, &Agg::event_count) / events, "calls/event");
  for (int op = 0; op < kMReportedOps; ++op) {
    const std::string name = std::string("storage.") + kStorageOpNames[op];
    m.Set(name + ".calls", agg[kStorageLayer][op].count, "count");
    m.Set(name + ".s", agg[kStorageLayer][op].s, "s");
  }
  m.Set("storage.self_s", layer_sum(kStorageLayer, &Agg::self), "s");
  m.Set("storage.reads_per_event",
        agg[kStorageLayer][kMRead].event_count / events, "reads/event");
  const auto u64 = [](uint64_t v) { return static_cast<double>(v); };
  m.Set("storage.cache_hits", u64(st.cache_hits), "count");
  m.Set("storage.disk_reads", u64(st.disk_reads), "count");
  m.Set("storage.cache_hit_ratio",
        ratio(u64(st.cache_hits), u64(st.cache_hits + st.disk_reads)),
        "ratio");
  m.Set("storage.wal_group_syncs", u64(st.wal_group_syncs), "count");
  m.Set("storage.wal_bytes", u64(st.wal_bytes), "bytes");
  m.Set("storage.mvcc_chains", u64(st.mvcc_chains), "count");
  m.Set("storage.lock_waits", u64(st.lock_waits), "count");
  m.Set("lsm.compaction_bytes_read", u64(st.lsm_compaction_bytes_read),
        "bytes");
  m.Set("lsm.compaction_bytes_written", u64(st.lsm_compaction_bytes_written),
        "bytes");
  m.Set("lsm.write_throttles", u64(st.lsm_write_throttles), "count");
  m.Set("lsm.bloom_checks", u64(st.lsm_bloom_checks), "count");
  m.Set("lsm.bloom_useful_ratio",
        ratio(u64(st.lsm_bloom_hits), u64(st.lsm_bloom_checks)), "ratio");
  const Agg& rd = agg[kEnvLayer][kERead];
  const Agg& wr = agg[kEnvLayer][kEWrite];
  const Agg& sy = agg[kEnvLayer][kESync];
  const double write_bytes = u64(env.write_bytes.load());
  m.Set("env.reads", rd.count, "count");
  m.Set("env.read_bytes", u64(env.read_bytes.load()), "bytes");
  m.Set("env.read_s", rd.s, "s");
  m.Set("env.writes", wr.count, "count");
  m.Set("env.write_bytes", write_bytes, "bytes");
  m.Set("env.write_s", wr.s, "s");
  m.Set("env.syncs", sy.count, "count");
  m.Set("env.sync_s", sy.s, "s");
  m.Set("env.background_s", layer_sum(kEnvLayer, &Agg::background), "s");
  m.Set("env.write_amp", write_bytes / u64(stream.user_bytes), "ratio");
  const OpenTimes first_reopen =
      r.reopen_times.empty() ? OpenTimes{} : r.reopen_times.front();
  m.Set("reopen.store_open_s", first_reopen.store_s, "s");
  m.Set("reopen.labbase_open_s", first_reopen.labbase_s, "s");
  double accounted = 0;
  for (int layer = 0; layer < kLayers; ++layer) {
    accounted += layer_sum(layer, &Agg::event_self);
  }
  m.Set("trace.accounted_ratio", accounted / r.replay_s, "ratio");
  m.Set("trace.events_per_s", events / r.replay_s, "events/s");
  return m;
}

// ---- Output ------------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintComposition(const Workload& w, const Stream& stream) {
  const Composition& c = stream.composition;
  std::printf("workload %s: %s, seed %llu, %d clones, %lld events "
              "(%lld updates, %lld queries), user bytes %llu\n",
              w.name, std::string(labflow::bench::ServerVersionName(w.version))
                          .c_str(),
              static_cast<unsigned long long>(stream.params.seed),
              stream.params.clones(), static_cast<long long>(c.events),
              static_cast<long long>(c.updates),
              static_cast<long long>(c.queries),
              static_cast<unsigned long long>(stream.user_bytes));
  std::printf("  make-up:");
  for (int t = 0; t < kEventTypes; ++t) {
    std::printf(" %s=%lld", EventTypeName(static_cast<Event::Type>(t)),
                static_cast<long long>(c.by_type[t]));
  }
  std::printf("\n");
}

void PrintStatsBeside(const RoundResult& r, const Metrics& m) {
  const storage::StorageStats& st = r.final_stats;
  std::printf(
      "  StorageStats beside the Env wrapper and the directory listing:\n"
      "    disk_reads=%llu  env.reads=%.0f\n"
      "    disk_writes=%llu  env.writes=%.0f\n"
      "    db_size_bytes=%llu  db_bytes(directory)=%llu\n"
      "    evictions=%llu  cache_hits=%llu  wal_bytes=%llu\n",
      static_cast<unsigned long long>(st.disk_reads), m.Get("env.reads"),
      static_cast<unsigned long long>(st.disk_writes), m.Get("env.writes"),
      static_cast<unsigned long long>(st.db_size_bytes),
      static_cast<unsigned long long>(r.db_bytes),
      static_cast<unsigned long long>(st.evictions),
      static_cast<unsigned long long>(st.cache_hits),
      static_cast<unsigned long long>(st.wal_bytes));
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool seeded = false;
  double seconds = 0;
  int trace = 0;
  std::string workdir = ".bench_build/run";
  bool self_test = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (k == "--self-test") {
      a->self_test = true;
    } else if (k == "--workload" && value(&v)) {
      a->workload = v;
    } else if (k == "--seed" && value(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
      a->seeded = true;
    } else if (k == "--seconds" && value(&v)) {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace" && value(&v)) {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--workdir" && value(&v)) {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return true;
}

bool Correct(const RoundResult& r) { return r.check.mismatches == 0; }

/// Whether a traced round's database has the untraced round's size. The
/// paged stores lay out the same stream byte for byte. LsmStore's layout
/// depends on when its background flushes and compactions ran, so it may
/// differ by up to 1%; at seed 1996 the sizes were equal in every round.
bool SameSize(const Workload& w, uint64_t traced, uint64_t untraced) {
  if (w.version != ServerVersion::kLsm) return traced == untraced;
  const double diff = static_cast<double>(traced > untraced
                                              ? traced - untraced
                                              : untraced - traced);
  return diff <= 0.01 * static_cast<double>(untraced);
}

void ReportRound(const char* label, int round, RoundResult& r) {
  std::printf("  %s round %d: %.3f s replay, %lld events attempted, %lld "
              "failed, %lld answer/property mismatches, db_bytes %llu, "
              "update p50/p99 %.1f/%.1f us, query p50/p98/p99 %.1f/%.1f/%.1f "
              "us\n",
              label, round, r.replay_s, static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              static_cast<long long>(r.check.mismatches),
              static_cast<unsigned long long>(r.db_bytes),
              Percentile(r.update_us, 0.5), Percentile(r.update_us, 0.99),
              Percentile(r.query_us, 0.5), Percentile(r.query_us, 0.98),
              Percentile(r.query_us, 0.99));
  for (const std::string& e : r.errors) std::printf("    error: %s\n", e.c_str());
  for (const std::string& e : r.check.messages) {
    std::printf("    mismatch: %s\n", e.c_str());
  }
}

int RunSelfTest(const Args& args) {
  labflow::bench::WorkloadParams params;
  params.base_clones = kBaseClones;
  params.intvl = 1;
  params.seed = 1996;
  Stream stream;
  std::string error;
  if (!BuildStream(params, &stream, &error)) {
    std::fprintf(stderr, "self-test: %s\n", error.c_str());
    return 1;
  }
  RunContext ctx;
  ctx.workload = &kWorkloads[0];
  ctx.stream = &stream;
  ctx.dir = args.workdir + "/self-test";
  ctx.seed = params.seed;
  RoundResult clean, perturbed;
  Status a = RunRound(ctx, nullptr, 0, 0, &clean);
  Status b = RunRound(ctx, nullptr, /*perturb_call=*/5, 0, &perturbed);
  fs::remove_all(ctx.dir);
  ReportRound("clean", 0, clean);
  ReportRound("perturbed", 0, perturbed);
  const bool ok = a.ok() && b.ok() && Correct(clean) && clean.failed == 0 &&
                  !Correct(perturbed);
  std::printf("self-test: %s (clean run %s; one wrong CountInState answer %s)\n",
              ok ? "PASS" : "FAIL", Correct(clean) ? "passes" : "FAILS",
              Correct(perturbed) ? "went UNNOTICED" : "was caught");
  return ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (!args.self_test && (!args.seeded || args.seconds <= 0))) {
    std::fprintf(stderr,
                 "usage: labflow_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--workdir DIR]\n"
                 "       labflow_perfbench --self-test [--workdir DIR]\n");
    return 2;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  if (args.self_test) return RunSelfTest(args);

  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  if (w->remote && PinToCurrentCpu(nullptr)) {
    std::printf("  all threads on CPU %d\n", sched_getcpu());
  }

  labflow::bench::WorkloadParams params;
  params.base_clones = kBaseClones;
  params.intvl = w->intvl;
  params.seed = args.seed;
  Stream stream;
  std::string error;
  const double g0 = Now();
  if (!BuildStream(params, &stream, &error)) {
    std::fprintf(stderr, "stream generation: %s\n", error.c_str());
    return 1;
  }
  PrintComposition(*w, stream);
  std::printf("  generated and modelled in %.2f s (not measured)\n",
              Now() - g0);

  RunContext ctx;
  ctx.workload = w;
  ctx.stream = &stream;
  ctx.dir = args.workdir + "/" + w->name;
  ctx.setup_dir = ctx.dir + "-setup";
  ctx.seed = args.seed;

  int64_t attempted = 0, failed = 0;
  bool correct = true;
  Metrics metrics;
  auto fail = [&](const Status& st) {
    std::fprintf(stderr, "run aborted: %s\n", st.ToString().c_str());
    fs::remove_all(ctx.dir);
    return 1;
  };
  auto account = [&](const RoundResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && Correct(r);
  };

  const double start = Now();
  if (args.trace == 0) {
    std::vector<double> setup;
    // The samples run on one CPU, as the remote workload does throughout:
    // a set-up starts threads (LsmStore's flush and compaction, the
    // server's loop and workers) and waits on each file sync, and wakeups
    // across CPUs make the samples vary with the machine's load.
    auto sample_setup = [&]() -> Status {
      cpu_set_t saved;
      const bool pinned = PinToCurrentCpu(&saved);
      for (int i = 0; i < kSetupSamples; ++i) {
        LABFLOW_ASSIGN_OR_RETURN(
            double s, SetupOnce(ctx, ctx.setup_dir, DeployOptions{}, nullptr));
        setup.push_back(s);
      }
      if (pinned) sched_setaffinity(0, sizeof(saved), &saved);
      fs::remove_all(ctx.setup_dir);
      return Status::OK();
    };
    if (Status st = sample_setup(); !st.ok()) return fail(st);
    std::vector<double> eps, up50, up99, q50, q98, cpu, bytes, reopen;
    for (int round = 0; round == 0 || Now() - start < args.seconds; ++round) {
      RoundResult r;
      Status st = RunRound(ctx, nullptr, 0, round, &r);
      if (!st.ok()) return fail(st);
      ReportRound("untraced", round, r);
      account(r);
      if (st = sample_setup(); !st.ok()) return fail(st);
      const double n = static_cast<double>(r.attempted);
      eps.push_back(n / r.replay_s);
      up50.push_back(Percentile(r.update_us, 0.50));
      up99.push_back(Percentile(r.update_us, 0.99));
      q50.push_back(Percentile(r.query_us, 0.50));
      q98.push_back(Percentile(r.query_us, 0.98));
      cpu.push_back(r.cpu_s / n * 1e6);
      bytes.push_back(static_cast<double>(r.db_bytes));
      reopen.insert(reopen.end(), r.reopen_s.begin(), r.reopen_s.end());
    }
    metrics.Set("events_per_s", Median(eps), "events/s");
    metrics.Set("update_p50_us", Median(up50), "us");
    metrics.Set("update_p99_us", Median(up99), "us");
    metrics.Set("query_p50_us", Median(q50), "us");
    metrics.Set("query_p98_us", Median(q98), "us");
    metrics.Set("cpu_us_per_event", Median(cpu), "us");
    metrics.Set("db_bytes", Median(bytes), "bytes");
    metrics.Set("reopen_s", Median(reopen), "s");
    metrics.Set("setup_s", Median(setup), "s");
  } else {
    // One untraced round for the reference figures, then traced rounds.
    RoundResult plain;
    Status st = RunRound(ctx, nullptr, 0, 0, &plain);
    if (!st.ok()) return fail(st);
    ReportRound("untraced", 0, plain);
    account(plain);
    const double untraced_eps =
        static_cast<double>(plain.attempted) / plain.replay_s;
    std::vector<Metrics> rounds;
    std::vector<Span> last_spans;
    for (int round = 1; round == 1 || Now() - start < args.seconds; ++round) {
      TimedEnv env;
      RoundResult r;
      st = RunRound(ctx, &env, 0, round, &r);
      if (!st.ok()) return fail(st);
      ReportRound("traced", round, r);
      account(r);
      if (!SameSize(*w, r.db_bytes, plain.db_bytes)) {
        std::printf("    mismatch: traced db_bytes %llu, untraced %llu\n",
                    static_cast<unsigned long long>(r.db_bytes),
                    static_cast<unsigned long long>(plain.db_bytes));
        correct = false;
      }
      last_spans = Tracer::Get().Collect();
      Metrics m = Analyze(last_spans, r, stream, env.counters());
      m.Set("trace.untraced_events_per_s", untraced_eps, "events/s");
      m.Set("trace.overhead_ratio",
            untraced_eps / m.Get("trace.events_per_s") - 1, "ratio");
      std::printf("  traced round %d: %.0f events/s traced vs %.0f untraced "
                  "(overhead %.1f%%); layers account for %.1f%% of the replay; "
                  "session calls attempted %llu, failed %llu, not-found %llu\n",
                  round, m.Get("trace.events_per_s"), untraced_eps,
                  100 * m.Get("trace.overhead_ratio"),
                  100 * m.Get("trace.accounted_ratio"),
                  static_cast<unsigned long long>(r.calls.attempted),
                  static_cast<unsigned long long>(r.calls.failed),
                  static_cast<unsigned long long>(r.calls.not_found));
      PrintStatsBeside(r, m);
      rounds.push_back(std::move(m));
    }
    const std::string spans_path =
        args.workdir + "/spans-" + w->name + ".bin";
    std::printf("  %zu spans of the last traced round written to %s\n",
                last_spans.size(),
                Tracer::WriteSpans(spans_path, last_spans) ? spans_path.c_str()
                                                           : "(write failed)");
    for (const auto& [name, entry] : rounds.front().entries) {
      std::vector<double> values;
      for (const Metrics& m : rounds) values.push_back(m.Get(name));
      metrics.Set(name, Median(values), entry.unit);
    }
  }
  fs::remove_all(ctx.dir);
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  std::printf("  peak resident memory %.0f MiB\n",
              static_cast<double>(ru.ru_maxrss) / 1024);

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics.entries) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Num(entry.value) +
            ", \"unit\": \"" + entry.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
