// Span tracing for the LabFlow-1 benchmark: a process-wide span recorder and
// timing wrappers over the program's three public seams —
// labbase::SessionIface, storage::StorageManager and storage::Env. Nothing
// here is compiled into the program itself; the wrappers sit around the
// calls the benchmark makes (or hands the program) into each layer.
//
// Every wrapped call records one Span: layer, operation, start, duration,
// the time covered by the spans nested beneath it (its children), and the
// event it served. Nesting is tracked per thread; a storage span that runs
// on a server worker while a remote client call is in flight is charged to
// that call (one client connection has at most one call in flight).
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "labbase/session_iface.h"
#include "storage/env.h"
#include "storage/storage_manager.h"

namespace perfbench {

enum Layer : uint8_t { kEventLayer, kSessionLayer, kStorageLayer, kEnvLayer };
inline constexpr int kLayers = 4;

/// Session operations, in the order the metrics report them; the ones after
/// kSetMembers are traced but not reported (the stream does not use them).
enum SessionOp : uint8_t {
  kSBegin, kSCommit, kSCreateMaterial, kSRecordStep, kSDefineStepClass,
  kSCreateSet, kSAddToSet, kSFindMaterialByName, kSMostRecent, kSHistory,
  kSMaterialsInState, kSGetMaterial, kSCountInState, kSFindSetByName,
  kSSetMembers,
  kSReportedOps,
  kSAbort = kSReportedOps, kSOther,
  kSessionOps
};
inline constexpr const char* kSessionOpNames[kSessionOps] = {
    "begin", "commit", "create_material", "record_step", "define_step_class",
    "create_set", "add_to_set", "find_material_by_name", "most_recent",
    "history", "materials_in_state", "get_material", "count_in_state",
    "find_set_by_name", "set_members", "abort", "other"};

enum StorageOp : uint8_t {
  kMBegin, kMCommit, kMAllocate, kMRead, kMUpdate, kMScanAll,
  kMReportedOps,
  kMAbort = kMReportedOps, kMFree, kMCheckpoint, kMClose, kMCatalog,
  kStorageOps
};
inline constexpr const char* kStorageOpNames[kStorageOps] = {
    "begin", "commit", "allocate", "read", "update", "scan_all",
    "abort", "free", "checkpoint", "close", "catalog"};

enum EnvOp : uint8_t { kERead, kEWrite, kESync, kEOpen, kEnvOps };
inline constexpr const char* kEnvOpNames[kEnvOps] = {"read", "write", "sync",
                                                     "open"};

/// Parent ids above every event index: the phases outside the event loop.
inline constexpr uint32_t kParentCheckpoint = 0xFFFFFFF0u;
inline constexpr uint32_t kParentClose = 0xFFFFFFF1u;
inline constexpr uint32_t kParentReopen = 0xFFFFFFF2u;
inline constexpr uint32_t kParentSetup = 0xFFFFFFF3u;
/// A span on a thread that serves no benchmark call (LSM flush/compaction).
inline constexpr uint32_t kParentBackground = 0xFFFFFFFFu;
inline bool IsEventParent(uint32_t parent) { return parent < kParentCheckpoint; }

struct Span {
  uint64_t start_ns = 0;  ///< since the tracer's epoch
  uint32_t dur_ns = 0;
  uint32_t child_ns = 0;  ///< time covered by spans nested beneath this one
  uint32_t parent = 0;    ///< event index, or one of the kParent* ids
  uint8_t layer = 0;
  uint8_t op = 0;
  uint16_t thread = 0;
};

/// Process-wide span recorder. Off until Start(); Stop() freezes it so the
/// spans can be read. One traced round at a time.
class Tracer {
 public:
  static Tracer& Get();

  /// Discards earlier spans and starts recording. The calling thread is the
  /// replay thread: its top-level spans belong to the current parent (the
  /// event loop). `remote` charges top-level spans of other threads to the
  /// client call in flight, if there is one.
  void Start(bool remote);
  void Stop();
  /// Resumes recording after Stop(), keeping the spans so far.
  void Resume() { active_.store(true); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// The event (or phase) the replay thread is serving now.
  void SetParent(uint32_t parent) {
    parent_.store(parent, std::memory_order_relaxed);
  }

  /// All recorded spans, in no particular order (only after Stop()).
  std::vector<Span> Collect() const;

  /// Writes `spans` to `path` as a flat binary file (see README.md).
  static bool WriteSpans(const std::string& path,
                         const std::vector<Span>& spans);

  // ---- used by ScopedSpan ----------------------------------------------------
  struct Frame {
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t parent;
    bool cross;  ///< top-level span charged to the in-flight remote call
  };
  struct ThreadState {
    uint16_t id = 0;
    bool replay = false;
    std::vector<Frame> stack;
    std::vector<Span> spans;
  };
  ThreadState* Thread();
  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }
  uint32_t parent() const { return parent_.load(std::memory_order_relaxed); }
  bool remote() const { return remote_; }

  /// Remote mode: the client call in flight (set by the session wrapper)
  /// and the time server-side spans spent under it.
  std::atomic<bool> call_in_flight{false};
  std::atomic<uint64_t> call_child_ns{0};

 private:
  Tracer() = default;

  std::atomic<bool> active_{false};
  std::atomic<uint32_t> parent_{kParentSetup};
  bool remote_ = false;
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> generation_{0};
  std::thread::id replay_thread_;

  mutable std::mutex mu_;  // guards threads_
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// Records one span over its scope when the tracer is active.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, uint8_t op);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Charges `ns` of child time measured elsewhere (a remote call's
  /// server-side spans) to this span.
  void AddChildNs(uint64_t ns) {
    if (ts_ != nullptr) ts_->stack.back().child_ns += ns;
  }

 private:
  Tracer::ThreadState* ts_ = nullptr;
  uint8_t layer_;
  uint8_t op_;
};

/// Byte counters the Env wrapper keeps beside its spans.
struct EnvCounters {
  std::atomic<uint64_t> read_bytes{0};
  std::atomic<uint64_t> write_bytes{0};
};

/// Env wrapper over Env::Default(): one span per file read, write/append and
/// sync, plus byte counts. Outlives every manager opened with it.
class TimedEnv : public labflow::storage::Env {
 public:
  TimedEnv() : base_(labflow::storage::Env::Default()) {}

  labflow::Result<std::unique_ptr<labflow::storage::File>> OpenFile(
      const std::string& path, bool truncate) override;
  labflow::Status Delete(const std::string& path) override {
    return base_->Delete(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

  EnvCounters& counters() { return counters_; }

 private:
  labflow::storage::Env* base_;
  EnvCounters counters_;
};

/// StorageManager wrapper: forwards every public operation to the manager
/// it owns, one span per call. Each wrapper transaction owns one inner
/// transaction, begun when the wrapper's is.
class TracingManager : public labflow::storage::StorageManager {
 public:
  explicit TracingManager(
      std::unique_ptr<labflow::storage::StorageManager> inner)
      : inner_(std::move(inner)) {}

  std::string_view name() const override { return inner_->name(); }
  labflow::Result<uint16_t> CreateSegment(std::string_view name) override;
  labflow::Status SetRoot(labflow::storage::ObjectId root) override;
  labflow::Result<labflow::storage::ObjectId> GetRoot() override;
  labflow::Status Checkpoint() override;
  labflow::Status Close() override;
  labflow::storage::StorageStats stats() const override {
    return inner_->stats();
  }

 protected:
  std::unique_ptr<labflow::storage::Txn> CreateTxn(uint64_t id) override;
  labflow::Status CommitTxn(labflow::storage::Txn* txn) override;
  labflow::Status AbortTxn(labflow::storage::Txn* txn) override;

  labflow::Result<labflow::storage::ObjectId> DoAllocate(
      labflow::storage::Txn* txn, std::string_view data,
      const labflow::storage::AllocHint& hint) override;
  labflow::Result<std::string> DoRead(labflow::storage::Txn* txn,
                                      labflow::storage::ObjectId id) override;
  labflow::Status DoUpdate(labflow::storage::Txn* txn,
                           labflow::storage::ObjectId id,
                           std::string_view data) override;
  labflow::Status DoFree(labflow::storage::Txn* txn,
                         labflow::storage::ObjectId id) override;
  labflow::Status DoScanAll(
      labflow::storage::Txn* txn,
      const std::function<labflow::Status(labflow::storage::ObjectId,
                                          std::string_view)>& fn) override;

 private:
  std::unique_ptr<labflow::storage::StorageManager> inner_;
};

/// Counts of session calls made through a TracingSession.
struct CallCounts {
  uint64_t attempted = 0;
  uint64_t not_found = 0;  ///< NotFound answers (an absent value or set)
  uint64_t failed = 0;     ///< any other non-OK status
};

/// SessionIface wrapper: one span per call, forwarded to `inner`. In remote
/// mode it also marks the call in flight so server-side spans are charged
/// to it.
class TracingSession : public labflow::labbase::SessionIface {
 public:
  TracingSession(labflow::labbase::SessionIface* inner, bool remote)
      : inner_(inner), remote_(remote) {}

  const CallCounts& calls() const { return calls_; }

  labflow::Status Begin() override;
  labflow::Status BeginReadOnly() override;
  labflow::Status Commit() override;
  labflow::Status Abort() override;
  bool in_transaction() const override { return inner_->in_transaction(); }
  labflow::Status RunTransaction(
      const std::function<labflow::Status()>& body) override;

  labflow::Result<labflow::labbase::ClassId> DefineMaterialClass(
      std::string_view name) override;
  labflow::Result<labflow::labbase::ClassId> DefineStepClass(
      std::string_view name,
      const std::vector<std::string>& attr_names) override;
  labflow::Result<labflow::labbase::StateId> DefineState(
      std::string_view name) override;
  const labflow::labbase::Schema& schema() const override {
    return inner_->schema();
  }

  labflow::Result<labflow::Oid> CreateMaterial(
      labflow::labbase::ClassId material_class, std::string_view name,
      labflow::labbase::StateId initial_state,
      labflow::Timestamp created) override;
  labflow::Result<labflow::Oid> RecordStep(
      labflow::labbase::ClassId step_class, labflow::Timestamp time,
      const std::vector<labflow::labbase::StepEffect>& effects) override;

  labflow::Result<labflow::Value> MostRecent(
      labflow::Oid material, labflow::labbase::AttrId attr) override;
  labflow::Result<labflow::Value> MostRecent(
      labflow::Oid material, std::string_view attr_name) override;
  labflow::Result<std::vector<labflow::labbase::HistoryEntry>> History(
      labflow::Oid material, labflow::labbase::AttrId attr) override;
  labflow::Result<labflow::Value> ValueAsOf(labflow::Oid material,
                                            labflow::labbase::AttrId attr,
                                            labflow::Timestamp at) override;
  labflow::Result<std::vector<labflow::labbase::HistoryEntry>> HistoryBetween(
      labflow::Oid material, labflow::labbase::AttrId attr,
      labflow::Timestamp from, labflow::Timestamp to) override;
  labflow::Result<labflow::labbase::MaterialInfo> GetMaterial(
      labflow::Oid material) override;
  labflow::Result<labflow::labbase::StepInfo> GetStep(
      labflow::Oid step) override;
  labflow::Result<labflow::Oid> FindMaterialByName(
      std::string_view name) override;
  labflow::Result<labflow::labbase::StateId> CurrentState(
      labflow::Oid material) override;
  labflow::Result<std::vector<labflow::Oid>> MaterialsInState(
      labflow::labbase::StateId state) override;
  labflow::Result<int64_t> CountInState(
      labflow::labbase::StateId state) override;
  labflow::Result<std::vector<labflow::Oid>> MaterialsOfClass(
      labflow::labbase::ClassId material_class) override;
  labflow::Result<std::vector<labflow::Oid>> ListSteps() override;

  labflow::Result<labflow::Oid> CreateSet(std::string_view name) override;
  labflow::Status AddToSet(labflow::Oid set, labflow::Oid material) override;
  labflow::Status RemoveFromSet(labflow::Oid set,
                                labflow::Oid material) override;
  labflow::Result<std::vector<labflow::Oid>> SetMembers(
      labflow::Oid set) override;
  labflow::Result<labflow::Oid> FindSetByName(std::string_view name) override;

  labflow::Status Checkpoint() override;
  const labflow::labbase::LabBaseStats& stats() const override {
    return inner_->stats();
  }

 private:
  template <typename Fn>
  auto Call(SessionOp op, Fn&& fn) -> decltype(fn());

  labflow::labbase::SessionIface* inner_;
  bool remote_;
  CallCounts calls_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
